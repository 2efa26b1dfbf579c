//! OpenQASM 2.0 import/export.
//!
//! Supports the subset QASMBench-style benchmark files use: header,
//! `qelib1.inc` include, `qreg`/`creg` declarations, the standard gate
//! mnemonics with parameter expressions over `pi`, and `measure`/`barrier`
//! statements (parsed and dropped — pulse generation acts on the coherent
//! part of the program).

use crate::circuit::Circuit;
use crate::gate::Gate;
use std::collections::HashMap;
use std::fmt;

/// Error produced while parsing an OpenQASM 2.0 program.
#[derive(Debug, Clone, PartialEq)]
pub struct ParseQasmError {
    /// 1-based source line of the failure.
    pub line: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseQasmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "qasm parse error at line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseQasmError {}

/// Parses an OpenQASM 2.0 program into a [`Circuit`].
///
/// Multiple quantum registers are flattened in declaration order.
/// `measure`, `barrier`, `creg` and `if` statements are accepted and
/// ignored; unknown gate mnemonics are an error.
///
/// # Errors
///
/// Returns [`ParseQasmError`] with the offending line on malformed input.
///
/// # Examples
///
/// ```
/// use epoc_circuit::parse_qasm;
///
/// let src = r#"
/// OPENQASM 2.0;
/// include "qelib1.inc";
/// qreg q[2];
/// h q[0];
/// cx q[0],q[1];
/// "#;
/// let c = parse_qasm(src)?;
/// assert_eq!(c.n_qubits(), 2);
/// assert_eq!(c.len(), 2);
/// # Ok::<(), epoc_circuit::ParseQasmError>(())
/// ```
pub fn parse_qasm(source: &str) -> Result<Circuit, ParseQasmError> {
    let mut registers: Vec<(String, usize, usize)> = Vec::new(); // (name, offset, size)
    let mut total_qubits = 0usize;
    let mut pending: Vec<(usize, String)> = Vec::new(); // statements with line numbers

    // Split into ';'-terminated statements while tracking line numbers and
    // stripping comments.
    let mut current = String::new();
    let mut stmt_line = 1usize;
    let mut started = false;
    for (lineno, raw) in source.lines().enumerate() {
        let line = match raw.find("//") {
            Some(p) => &raw[..p],
            None => raw,
        };
        for ch in line.chars() {
            if ch == ';' {
                let stmt = current.trim().to_string();
                if !stmt.is_empty() {
                    pending.push((stmt_line, stmt));
                }
                current.clear();
                started = false;
            } else {
                if !started && !ch.is_whitespace() {
                    started = true;
                    stmt_line = lineno + 1;
                }
                current.push(ch);
            }
        }
        current.push(' ');
    }
    if !current.trim().is_empty() {
        return Err(ParseQasmError {
            line: stmt_line,
            message: "unterminated statement (missing ';')".into(),
        });
    }

    // First pass: registers.
    for (line, stmt) in &pending {
        if let Some(rest) = stmt.strip_prefix("qreg") {
            let (name, size) = parse_reg_decl(rest).map_err(|m| ParseQasmError {
                line: *line,
                message: m,
            })?;
            registers.push((name, total_qubits, size));
            total_qubits += size;
        }
    }
    let reg_map: HashMap<&str, (usize, usize)> = registers
        .iter()
        .map(|(n, off, sz)| (n.as_str(), (*off, *sz)))
        .collect();

    let mut circuit = Circuit::new(total_qubits);
    for (line, stmt) in &pending {
        let stmt = stmt.trim();
        let head = stmt.split_whitespace().next().unwrap_or("");
        match head {
            "OPENQASM" | "include" | "qreg" | "creg" | "barrier" | "measure" | "reset"
            | "if" => continue,
            "" => continue,
            _ => {}
        }
        parse_gate_statement(stmt, &reg_map, &mut circuit).map_err(|m| ParseQasmError {
            line: *line,
            message: m,
        })?;
    }
    Ok(circuit)
}

fn parse_reg_decl(rest: &str) -> Result<(String, usize), String> {
    let rest = rest.trim();
    let open = rest.find('[').ok_or("expected '[' in register decl")?;
    let close = rest.find(']').ok_or("expected ']' in register decl")?;
    let name = rest[..open].trim().to_string();
    if name.is_empty() {
        return Err("empty register name".into());
    }
    let size: usize = rest[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| "invalid register size".to_string())?;
    Ok((name, size))
}

fn parse_gate_statement(
    stmt: &str,
    regs: &HashMap<&str, (usize, usize)>,
    circuit: &mut Circuit,
) -> Result<(), String> {
    // Split mnemonic(params) from operand list. A parameter list may
    // contain spaces (`rz(pi / 2)`) or be separated from the mnemonic by
    // one (`rz (pi/2)`), so when a '(' appears before any ']' the head
    // extends to the matching ')'.
    let open = stmt.find('(');
    let first_bracket = stmt.find('[').unwrap_or(usize::MAX);
    let (head, operands) = match open {
        Some(o) if o < first_bracket => {
            if stmt[..o].contains(')') {
                return Err("mismatched parentheses".into());
            }
            let close = matching_paren(stmt, o).ok_or("missing ')' in gate parameters")?;
            (&stmt[..=close], &stmt[close + 1..])
        }
        _ => {
            let p = stmt
                .find(|c: char| c.is_whitespace())
                .ok_or("malformed gate statement")?;
            (&stmt[..p], &stmt[p..])
        }
    };
    let (name, params) = match head.find('(') {
        Some(p) => {
            let close = head.rfind(')').ok_or("missing ')' in gate parameters")?;
            let exprs: Vec<f64> = split_top_level(&head[p + 1..close])
                .into_iter()
                .map(|e| eval_expr(e.trim()))
                .collect::<Result<_, _>>()?;
            (head[..p].trim(), exprs)
        }
        None => (head.trim(), Vec::new()),
    };

    let mut qubits = Vec::new();
    for operand in split_top_level(operands) {
        let operand = operand.trim();
        if operand.is_empty() {
            continue;
        }
        qubits.push(resolve_qubit(operand, regs)?);
    }
    let gate = lookup_gate(name, &params)?;
    if qubits.len() != gate.arity() {
        return Err(format!(
            "gate {name} expects {} qubits, got {}",
            gate.arity(),
            qubits.len()
        ));
    }
    circuit.push(gate, &qubits);
    Ok(())
}

fn resolve_qubit(operand: &str, regs: &HashMap<&str, (usize, usize)>) -> Result<usize, String> {
    let open = operand
        .find('[')
        .ok_or_else(|| format!("expected indexed qubit, got '{operand}'"))?;
    let close = operand
        .find(']')
        .ok_or_else(|| format!("missing ']' in '{operand}'"))?;
    let reg = operand[..open].trim();
    let idx: usize = operand[open + 1..close]
        .trim()
        .parse()
        .map_err(|_| format!("invalid qubit index in '{operand}'"))?;
    let &(offset, size) = regs
        .get(reg)
        .ok_or_else(|| format!("unknown register '{reg}'"))?;
    if idx >= size {
        return Err(format!("qubit index {idx} out of range for register '{reg}'"));
    }
    Ok(offset + idx)
}

/// The byte index of the `)` that closes the `(` at `open`.
fn matching_paren(s: &str, open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, ch) in s[open..].char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + i);
                }
            }
            _ => {}
        }
    }
    None
}

/// Splits on commas that are not inside parentheses.
fn split_top_level(s: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut depth = 0usize;
    let mut start = 0usize;
    for (i, ch) in s.char_indices() {
        match ch {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            ',' if depth == 0 => {
                out.push(&s[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < s.len() {
        out.push(&s[start..]);
    }
    out
}

fn lookup_gate(name: &str, params: &[f64]) -> Result<Gate, String> {
    let need = |n: usize| -> Result<(), String> {
        if params.len() == n {
            Ok(())
        } else {
            Err(format!("gate {name} expects {n} parameters, got {}", params.len()))
        }
    };
    let g = match name {
        "id" => Gate::I,
        "x" => Gate::X,
        "y" => Gate::Y,
        "z" => Gate::Z,
        "h" => Gate::H,
        "s" => Gate::S,
        "sdg" => Gate::Sdg,
        "t" => Gate::T,
        "tdg" => Gate::Tdg,
        "sx" => Gate::Sx,
        "sxdg" => Gate::Sxdg,
        "rx" => {
            need(1)?;
            Gate::RX(params[0])
        }
        "ry" => {
            need(1)?;
            Gate::RY(params[0])
        }
        "rz" => {
            need(1)?;
            Gate::RZ(params[0])
        }
        "p" | "u1" => {
            need(1)?;
            Gate::Phase(params[0])
        }
        "u2" => {
            need(2)?;
            Gate::U2(params[0], params[1])
        }
        "u3" | "u" => {
            need(3)?;
            Gate::U3(params[0], params[1], params[2])
        }
        "cx" | "CX" => Gate::CX,
        "cy" => Gate::CY,
        "cz" => Gate::CZ,
        "ch" => Gate::CH,
        "crx" => {
            need(1)?;
            Gate::CRX(params[0])
        }
        "cry" => {
            need(1)?;
            Gate::CRY(params[0])
        }
        "crz" => {
            need(1)?;
            Gate::CRZ(params[0])
        }
        "cp" | "cu1" => {
            need(1)?;
            Gate::CPhase(params[0])
        }
        "rzz" => {
            need(1)?;
            Gate::RZZ(params[0])
        }
        "rxx" => {
            need(1)?;
            Gate::RXX(params[0])
        }
        "swap" => Gate::Swap,
        "ccx" => Gate::CCX,
        "ccz" => Gate::CCZ,
        "cswap" => Gate::CSwap,
        other => return Err(format!("unsupported gate '{other}'")),
    };
    if g.params().len() != params.len() {
        return Err(format!("gate {name} parameter count mismatch"));
    }
    Ok(g)
}

/// Parentheses and unary signs an expression may nest: far above any
/// real program, far below what would overflow the stack, since the
/// evaluator recurses once per level.
const MAX_EXPR_DEPTH: usize = 128;

/// Evaluates a QASM parameter expression: numbers, `pi`, `+ - * /`,
/// parentheses and unary minus, nested at most [`MAX_EXPR_DEPTH`] deep.
fn eval_expr(src: &str) -> Result<f64, String> {
    let tokens = tokenize(src)?;
    let mut pos = 0usize;
    let v = parse_sum(&tokens, &mut pos, 0)?;
    if pos != tokens.len() {
        return Err(format!("trailing tokens in expression '{src}'"));
    }
    Ok(v)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Num(f64),
    Plus,
    Minus,
    Star,
    Slash,
    LParen,
    RParen,
}

fn tokenize(src: &str) -> Result<Vec<Tok>, String> {
    let mut out = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i] as char;
        match c {
            ' ' | '\t' => i += 1,
            '+' => {
                out.push(Tok::Plus);
                i += 1;
            }
            '-' => {
                out.push(Tok::Minus);
                i += 1;
            }
            '*' => {
                out.push(Tok::Star);
                i += 1;
            }
            '/' => {
                out.push(Tok::Slash);
                i += 1;
            }
            '(' => {
                out.push(Tok::LParen);
                i += 1;
            }
            ')' => {
                out.push(Tok::RParen);
                i += 1;
            }
            'p' | 'P' => {
                if src[i..].len() >= 2 && src[i..i + 2].eq_ignore_ascii_case("pi") {
                    out.push(Tok::Num(std::f64::consts::PI));
                    i += 2;
                } else {
                    return Err(format!("unexpected identifier in expression '{src}'"));
                }
            }
            d if d.is_ascii_digit() || d == '.' => {
                let start = i;
                while i < bytes.len() {
                    let ch = bytes[i] as char;
                    let exp_sign = (ch == '+' || ch == '-')
                        && i > start
                        && matches!(bytes[i - 1] as char, 'e' | 'E');
                    if ch.is_ascii_digit() || ch == '.' || ch == 'e' || ch == 'E' || exp_sign {
                        i += 1;
                    } else {
                        break;
                    }
                }
                let num: f64 = src[start..i]
                    .parse()
                    .map_err(|_| format!("bad number '{}'", &src[start..i]))?;
                out.push(Tok::Num(num));
            }
            other => return Err(format!("unexpected character '{other}' in expression")),
        }
    }
    Ok(out)
}

fn parse_sum(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_product(toks, pos, depth)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Plus => {
                *pos += 1;
                acc += parse_product(toks, pos, depth)?;
            }
            Tok::Minus => {
                *pos += 1;
                acc -= parse_product(toks, pos, depth)?;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_product(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let mut acc = parse_atom(toks, pos, depth)?;
    while *pos < toks.len() {
        match toks[*pos] {
            Tok::Star => {
                *pos += 1;
                acc *= parse_atom(toks, pos, depth)?;
            }
            Tok::Slash => {
                *pos += 1;
                let d = parse_atom(toks, pos, depth)?;
                acc /= d;
            }
            _ => break,
        }
    }
    Ok(acc)
}

fn parse_atom(toks: &[Tok], pos: &mut usize, depth: usize) -> Result<f64, String> {
    let nests = matches!(toks.get(*pos), Some(Tok::Minus | Tok::Plus | Tok::LParen));
    if nests && depth == MAX_EXPR_DEPTH {
        return Err(format!(
            "expression nests deeper than {MAX_EXPR_DEPTH} levels"
        ));
    }
    match toks.get(*pos) {
        Some(Tok::Num(v)) => {
            *pos += 1;
            Ok(*v)
        }
        Some(Tok::Minus) => {
            *pos += 1;
            Ok(-parse_atom(toks, pos, depth + 1)?)
        }
        Some(Tok::Plus) => {
            *pos += 1;
            parse_atom(toks, pos, depth + 1)
        }
        Some(Tok::LParen) => {
            *pos += 1;
            let v = parse_sum(toks, pos, depth + 1)?;
            match toks.get(*pos) {
                Some(Tok::RParen) => {
                    *pos += 1;
                    Ok(v)
                }
                _ => Err("missing ')'".into()),
            }
        }
        _ => Err("unexpected end of expression".into()),
    }
}

/// Serializes a circuit as an OpenQASM 2.0 program.
///
/// Opaque [`Gate::Unitary`] blocks cannot be expressed in QASM 2.0 and
/// cause a panic — export circuits before synthesis, or after lowering.
///
/// # Panics
///
/// Panics if the circuit contains opaque unitary blocks.
pub fn to_qasm(circuit: &Circuit) -> String {
    let mut out = String::new();
    out.push_str("OPENQASM 2.0;\ninclude \"qelib1.inc\";\n");
    out.push_str(&format!("qreg q[{}];\n", circuit.n_qubits()));
    for op in circuit.ops() {
        assert!(
            !matches!(op.gate, Gate::Unitary { .. }),
            "opaque unitary blocks cannot be exported to QASM 2.0"
        );
        let params = op.gate.params();
        let name = op.gate.name();
        if params.is_empty() {
            out.push_str(name);
        } else {
            let ps: Vec<String> = params.iter().map(|p| format!("{p:.12}")).collect();
            out.push_str(&format!("{name}({})", ps.join(",")));
        }
        let qs: Vec<String> = op.qubits.iter().map(|q| format!("q[{q}]")).collect();
        out.push_str(&format!(" {};\n", qs.join(",")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::circuits_equivalent;
    use std::f64::consts::PI;

    #[test]
    fn parse_minimal_program() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nccx q[0],q[1],q[2];\n";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 3);
        assert_eq!(c.len(), 3);
        assert_eq!(c.ops()[2].qubits, vec![0, 1, 2]);
    }

    #[test]
    fn parse_parameter_expressions() {
        let src = "qreg q[1]; rz(pi/2) q[0]; rx(-pi/4) q[0]; u3(0.5, pi*2, 1e-1) q[0];";
        let c = parse_qasm(src).unwrap();
        match &c.ops()[0].gate {
            Gate::RZ(t) => assert!((t - PI / 2.0).abs() < 1e-12),
            g => panic!("wrong gate {g}"),
        }
        match &c.ops()[1].gate {
            Gate::RX(t) => assert!((t + PI / 4.0).abs() < 1e-12),
            g => panic!("wrong gate {g}"),
        }
        match &c.ops()[2].gate {
            Gate::U3(a, b, c) => {
                assert!((a - 0.5).abs() < 1e-12);
                assert!((b - 2.0 * PI).abs() < 1e-12);
                assert!((c - 0.1).abs() < 1e-12);
            }
            g => panic!("wrong gate {g}"),
        }
    }

    #[test]
    fn parse_spaces_around_parameter_list() {
        let src = "qreg q[1]; rz (pi / 2) q[0]; u3( 0.1 , 0.2 , 0.3 ) q[0];";
        let c = parse_qasm(src).unwrap();
        match &c.ops()[0].gate {
            Gate::RZ(t) => assert!((t - PI / 2.0).abs() < 1e-12),
            g => panic!("wrong gate {g}"),
        }
        assert!(matches!(c.ops()[1].gate, Gate::U3(_, _, _)));
    }

    #[test]
    fn parse_multiple_registers_flatten() {
        let src = "qreg a[2]; qreg b[2]; cx a[1],b[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.n_qubits(), 4);
        assert_eq!(c.ops()[0].qubits, vec![1, 2]);
    }

    #[test]
    fn measure_and_barrier_ignored() {
        let src = "qreg q[2]; creg c[2]; h q[0]; barrier q[0],q[1]; measure q[0] -> c[0];";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn comments_stripped() {
        let src = "// header\nqreg q[1]; // reg\nh q[0]; // gate";
        let c = parse_qasm(src).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unknown_gate_is_error() {
        let src = "qreg q[1]; frobnicate q[0];";
        let err = parse_qasm(src).unwrap_err();
        assert!(err.message.contains("unsupported gate"));
    }

    #[test]
    fn out_of_range_qubit_is_error() {
        let src = "qreg q[1]; h q[3];";
        let err = parse_qasm(src).unwrap_err();
        assert!(err.message.contains("out of range"));
    }

    #[test]
    fn error_carries_line_number() {
        let src = "qreg q[1];\n\nbogus q[0];";
        let err = parse_qasm(src).unwrap_err();
        assert_eq!(err.line, 3);
    }

    #[test]
    fn round_trip_semantics() {
        let mut c = Circuit::new(3);
        c.push(Gate::H, &[0])
            .push(Gate::RZ(0.7), &[1])
            .push(Gate::CX, &[0, 2])
            .push(Gate::U3(0.1, -0.2, 0.3), &[1])
            .push(Gate::CPhase(1.5), &[1, 2])
            .push(Gate::Swap, &[0, 1]);
        let text = to_qasm(&c);
        let back = parse_qasm(&text).unwrap();
        assert_eq!(back.len(), c.len());
        assert!(circuits_equivalent(&c, &back, 1e-9));
        assert_eq!(to_qasm(&back), text);
    }

    /// A parameter may nest parentheses and unary signs, spaced or not:
    /// each form parses to the gate its flat spelling gives.
    #[test]
    fn nested_parameters_match_their_flat_form() {
        for (nested, flat) in [
            ("u3(pi/2, -(pi/4), 0)", "u3(pi/2,-pi/4,0)"),
            ("u3( (pi) / 2 , -( pi / 4 ) , ( 0 ) )", "u3(pi/2,-pi/4,0)"),
            ("u3 ((pi/2), (-(pi/4)), -(-0))", "u3(pi/2,-pi/4,0)"),
            ("rz(((pi/2)))", "rz(pi/2)"),
            ("rz(-(-(pi/3)))", "rz(pi/3)"),
            ("rz(+(2*(0.25)))", "rz(0.5)"),
            ("cu1(-(pi)) q[1],", "cu1(-pi) q[1],"),
        ] {
            let parse = |p: &str| parse_qasm(&format!("qreg q[2]; {p} q[0];")).unwrap();
            let (a, b) = (parse(nested), parse(flat));
            assert_eq!(a.ops(), b.ops(), "{nested} vs {flat}");
        }
    }

    /// Expressions nest at most `MAX_EXPR_DEPTH` levels; a deeper one is
    /// a parse error, not a stack overflow.
    #[test]
    fn deep_parameter_nesting_is_an_error() {
        let parens = |n: usize| format!("qreg q[1]; rz({}0{}) q[0];", "(".repeat(n), ")".repeat(n));
        assert!(parse_qasm(&parens(MAX_EXPR_DEPTH)).is_ok());
        let signs = format!("qreg q[1]; rz({}1) q[0];", "-".repeat(50_000));
        for src in [parens(MAX_EXPR_DEPTH + 1), parens(50_000), signs] {
            let err = parse_qasm(&src).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{err}");
        }
    }

    #[test]
    fn u_aliases() {
        let src = "qreg q[1]; u1(0.3) q[0]; u(0.1,0.2,0.3) q[0]; p(0.5) q[0];";
        let c = parse_qasm(src).unwrap();
        assert!(matches!(c.ops()[0].gate, Gate::Phase(_)));
        assert!(matches!(c.ops()[1].gate, Gate::U3(_, _, _)));
        assert!(matches!(c.ops()[2].gate, Gate::Phase(_)));
    }

    #[test]
    #[should_panic(expected = "cannot be exported")]
    fn export_rejects_opaque_blocks() {
        let mut c = Circuit::new(2);
        c.push(
            Gate::unitary("blk", Gate::CX.unitary_matrix()),
            &[0, 1],
        );
        let _ = to_qasm(&c);
    }
}
