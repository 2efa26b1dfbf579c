//! # epoc-partition — circuit partitioning for the EPOC pipeline
//!
//! Implements the paper's Algorithm 1 ([`greedy_partition`]: horizontal
//! qubit grouping + vertical gate filling), the §3.3 regrouping pass
//! ([`regroup`], [`regroup_to_blocks`]) that aggregates synthesized VUG
//! streams into QOC-sized unitaries, and the PAQOC-style coarse-grained
//! baseline partitioner ([`paqoc_partition`]) the evaluation compares
//! against.
//!
//! ## Example
//!
//! ```
//! use epoc_circuit::generators;
//! use epoc_partition::{greedy_partition, PartitionConfig};
//!
//! let c = generators::ghz(6);
//! let p = greedy_partition(&c, PartitionConfig { max_qubits: 3, max_gates: 8 });
//! assert_eq!(p.total_gates(), c.len());
//! for block in p.blocks() {
//!     assert!(block.n_qubits() <= 3);
//! }
//! ```

#![warn(missing_docs)]

mod block;
mod frontier;
mod greedy;
mod paqoc;
mod regroup;

pub use block::{Block, Partition};
pub use greedy::{greedy_partition, PartitionConfig};
pub use paqoc::{paqoc_partition, PaqocConfig};
pub use regroup::{regroup, regroup_to_blocks, RegroupConfig, RegroupStats};

/// Records block-count and per-block shape telemetry for a finished
/// partitioning pass under the `<prefix>.*` metric names. One counter add
/// plus two histogram samples per block; free when telemetry is disabled.
pub(crate) fn record_partition_telemetry(prefix: &'static str, blocks: &[Block]) {
    use epoc_rt::telemetry;
    if !telemetry::is_enabled() {
        return;
    }
    let (blocks_name, qubits_name, gates_name) = match prefix {
        "regroup" => (
            "regroup.blocks",
            "regroup.block_qubits",
            "regroup.block_gates",
        ),
        _ => (
            "partition.blocks",
            "partition.block_qubits",
            "partition.block_gates",
        ),
    };
    telemetry::counter_add(blocks_name, blocks.len() as u64);
    for block in blocks {
        telemetry::histogram_record(qubits_name, block.n_qubits() as u64);
        telemetry::histogram_record(gates_name, block.circuit().len() as u64);
    }
}
