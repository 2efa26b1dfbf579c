//! **Design-choice ablation** (DESIGN.md §3.4): exact propagator-derivative
//! GRAPE gradients vs the original first-order approximation — iterations
//! and final fidelity on standard targets, then a summary of the rows:
//! on which targets exact took fewer, equal and more iterations, and
//! where its fidelity was lower.
//!
//! ```sh
//! cargo run -p epoc-bench --bin grape_gradient_ablation --release
//! ```

use epoc_bench::{header, row};
use epoc_circuit::{Circuit, Gate};
use epoc_qoc::{grape, DeviceModel, GradientMode, GrapeConfig};
use std::cmp::Ordering;

fn main() {
    let widths = [12, 8, 12, 8, 12];
    header(
        &["target", "ex iters", "ex fidelity", "fo iters", "fo fidelity"],
        &widths,
    );
    let cases: Vec<(&str, usize, epoc_linalg::Matrix, usize)> = vec![
        ("X", 1, Gate::X.unitary_matrix(), 20),
        ("H", 1, Gate::H.unitary_matrix(), 20),
        ("SX", 1, Gate::Sx.unitary_matrix(), 16),
        ("bell-block", 2, {
            let mut c = Circuit::new(2);
            c.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
            c.unitary()
        }, 128),
        ("CZ", 2, Gate::CZ.unitary_matrix(), 128),
    ];
    // Targets by how exact's iterations compare with first-order's, and
    // those where exact's fidelity is lower.
    let (mut fewer, mut equal, mut more, mut lower) = (vec![], vec![], vec![], vec![]);
    for (name, n, target, slots) in cases {
        let device = DeviceModel::transmon_line(n).unwrap();
        let run = |mode: GradientMode| {
            grape(
                &device,
                &target,
                slots,
                &GrapeConfig {
                    gradient: mode,
                    max_iters: 400,
                    learning_rate: 0.01,
                    ..Default::default()
                },
            )
        };
        let exact = run(GradientMode::Exact).expect("ablation targets are well-formed");
        let first = run(GradientMode::FirstOrder).expect("ablation targets are well-formed");
        row(
            &[
                name.to_string(),
                exact.iterations.to_string(),
                format!("{:.6}", exact.fidelity),
                first.iterations.to_string(),
                format!("{:.6}", first.fidelity),
            ],
            &widths,
        );
        match exact.iterations.cmp(&first.iterations) {
            Ordering::Less => fewer.push(name),
            Ordering::Equal => equal.push(name),
            Ordering::Greater => more.push(name),
        }
        if exact.fidelity < first.fidelity {
            lower.push(name);
        }
    }
    let list = |names: &[&str]| match names {
        [] => "0 targets".to_string(),
        _ => format!("{} ({})", names.len(), names.join(", ")),
    };
    println!(
        "\nexact vs first-order iterations: fewer on {}, equal on {}, more on {}",
        list(&fewer),
        list(&equal),
        list(&more)
    );
    println!("exact reached a lower fidelity on {}", list(&lower));
}
