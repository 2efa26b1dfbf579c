//! Low-level pulse generation: run GRAPE against the simulated transmon
//! device, binary-search the minimal duration, and inspect the waveform.
//!
//! ```sh
//! cargo run -p epoc --example pulse_compile --release
//! ```

use epoc_circuit::{Circuit, Gate};
use epoc_qoc::{
    grape, minimize_duration, DeviceModel, DurationSearchConfig, GrapeConfig, PulseWaveform,
};

fn main() {
    // --- single-qubit X gate -------------------------------------------
    let device = DeviceModel::transmon_line(1).unwrap();
    let x = Gate::X.unitary_matrix();
    let sol = minimize_duration(&device, &x, &DurationSearchConfig::default())
        .expect("X gate is reachable");
    println!(
        "X gate: minimal pulse {} ns ({} slots, fidelity {:.6}, {} GRAPE probes)",
        sol.result.duration, sol.n_slots, sol.fidelity, sol.probes
    );
    // The X-drive channel's area, peak and shape, read off the controls.
    let waveform = PulseWaveform::new(device.dt(), sol.result.controls);
    let x_drive = &waveform.controls()[0];
    println!(
        "  X-drive area {:.3} rad (π = {:.3}); peak {:.4} rad/ns (bound {:.4})",
        x_drive.iter().sum::<f64>() * waveform.dt(),
        std::f64::consts::PI,
        x_drive.iter().fold(0.0f64, |m, &u| m.max(u.abs())),
        device.max_amplitude()
    );
    print!("  waveform: ");
    let d = waveform.duration();
    for i in 0..32 {
        let a = waveform.amplitude(0, d * i as f64 / 32.0);
        let bars = ((a / device.max_amplitude()).abs() * 8.0) as usize;
        print!("{}", ["·", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"][bars.min(8)]);
    }
    println!();

    // --- two-qubit entangling block ------------------------------------
    let device2 = DeviceModel::transmon_line(2).unwrap();
    let mut block = Circuit::new(2);
    block.push(Gate::H, &[0]).push(Gate::CX, &[0, 1]);
    let target = block.unitary();
    println!("\nBell block (H·CX) on the 2-qubit device:");
    for slots in [64, 128, 256] {
        let r = grape(&device2, &target, slots, &GrapeConfig::default())
            .expect("well-formed GRAPE inputs");
        println!(
            "  {:>3} slots ({:>4.0} ns): fidelity {:.6}",
            slots,
            slots as f64 * device2.dt(),
            r.fidelity
        );
    }
    let sol2 = minimize_duration(
        &device2,
        &target,
        &DurationSearchConfig {
            initial_slots: 32,
            max_slots: 1024,
            ..Default::default()
        },
    )
    .expect("Bell block reachable");
    println!(
        "  minimal: {} ns at fidelity {:.6}",
        sol2.result.duration, sol2.fidelity
    );
    println!(
        "  gate-based comparison: H + CX = {} ns",
        35.5 + 300.0
    );
}
