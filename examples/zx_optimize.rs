//! The paper's Figure 4 walk-through: ZX graph-based depth optimization
//! of the 4-qubit Bell-pair preparation circuit, then block synthesis.
//!
//! ```sh
//! cargo run -p epoc --example zx_optimize
//! ```

use epoc_circuit::{circuits_equivalent, generators};
use epoc_partition::{greedy_partition, PartitionConfig};
use epoc_synth::{synthesize, SynthConfig};
use epoc_zx::zx_optimize;

fn main() {
    let circuit = generators::bell_pair_prep();
    println!("=== Figure 4(a): input circuit ===");
    println!("{circuit}");

    // (b) ZX conversion + rewriting, (c) extraction.
    let result = zx_optimize(&circuit);
    println!("=== after ZX optimization ===");
    println!("{}", result.circuit);
    println!(
        "depth {} -> {} ({:.2}x), gates {} -> {}",
        result.depth_before,
        result.depth_after,
        result.depth_reduction(),
        result.gates_before,
        result.gates_after
    );
    assert!(
        circuits_equivalent(&circuit, &result.circuit, 1e-6),
        "ZX pass changed semantics"
    );

    // Partition the optimized circuit and synthesize one block with VUGs.
    let partition = greedy_partition(
        &result.circuit,
        PartitionConfig {
            max_qubits: 2,
            max_gates: 16,
        },
    );
    println!("=== partition: {} blocks ===", partition.len());
    for (i, block) in partition.blocks().iter().enumerate() {
        println!(
            "block {i}: qubits {:?}, {} gates, depth {}",
            block.qubits(),
            block.len(),
            block.circuit().depth()
        );
    }
    if let Some(block) = partition.blocks().iter().find(|b| b.n_qubits() == 2) {
        let synth = synthesize(&block.unitary(), &SynthConfig::default())
            .expect("block unitary is well-formed");
        println!(
            "\nsynthesized 2-qubit block: {} gates -> {} VUG/CNOT ops \
             ({} CNOTs, distance {:.2e})",
            block.len(),
            synth.circuit.len(),
            synth.cnots,
            synth.distance
        );
        println!("{}", synth.circuit);
    }
}
