//! Control-electronics model for EPOC.
//!
//! GRAPE emits mathematically optimal control amplitudes; a real control
//! stack then distorts them: a DAC quantizes amplitudes to `n` bits and
//! limits the slew between consecutive samples, the analog output chain
//! low-pass filters the staircase, and imperfect wiring cross-couples
//! neighbouring drive lines. SFQ-style controllers go further and only
//! emit discrete pulse trains, so amplitudes become integer pulse counts
//! per slot.
//!
//! This crate models that chain as a deterministic, allocation-free
//! *conditioning pipeline* applied to raw control amplitudes:
//!
//! ```text
//! raw u ──slew-clip──▶ quantize (DAC or SFQ) ──▶ Gaussian low-pass ──▶ crosstalk mix──▶ played u
//! ```
//!
//! The same pipeline is used in two places:
//!
//! * **at schedule emission** (`crates/core`), so the simulator replays
//!   what the electronics would actually play, and
//! * **inside GRAPE** (`crates/qoc`), which optimizes *through* the model
//!   with a straight-through estimator: the fidelity is evaluated on the
//!   conditioned controls, the gradient of the linear stages (filter,
//!   crosstalk) is pulled back exactly via [`HardwareProfile::adjoint_grad`],
//!   and the non-linear stages (quantize, slew) pass the gradient through
//!   unchanged.
//!
//! Everything here is plain sequential `f64` arithmetic with a fixed
//! accumulation order — conditioning a waveform is byte-deterministic
//! across worker counts, SIMD dispatch, and repeat runs.

#![warn(missing_docs)]

/// SFQ (single-flux-quantum) drive parameters: the controller emits a
/// train of identical quantized pulses at `clock_ghz`, so the effective
/// per-slot amplitude is an integer pulse count.
#[derive(Debug, Clone, PartialEq)]
pub struct SfqParams {
    /// SFQ pulse-train clock in GHz. With a slot length of `dt` ns the
    /// controller can fit `round(dt * clock_ghz)` pulses per slot, which
    /// sets the amplitude LSB.
    pub clock_ghz: f64,
}

impl SfqParams {
    /// Number of clock ticks (candidate pulses) per slot of length `dt`
    /// nanoseconds; at least 1.
    pub fn ticks_per_slot(&self, dt: f64) -> usize {
        let t = (dt * self.clock_ghz).round();
        if t < 1.0 {
            1
        } else {
            t as usize
        }
    }

    /// Amplitude least-significant-bit for slots of length `dt`: the
    /// drive saturates at `a_max` when every tick carries a pulse.
    pub fn lsb(&self, dt: f64, a_max: f64) -> f64 {
        a_max / self.ticks_per_slot(dt) as f64
    }
}

/// A description of the control electronics driving the device.
///
/// All constraint fields use `0` (or `None`) to mean "not modelled", so
/// the zeroed profile is an exact identity — see
/// [`HardwareProfile::is_identity`].
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Preset name (informational; carried into reports).
    pub name: String,
    /// AWG sampling rate in GS/s (GHz). Conditioning operates at the
    /// device slot rate (one control amplitude per slot); this records
    /// the electronics' assumed rate for reports and sanity checks.
    pub sample_rate_ghz: f64,
    /// DAC amplitude resolution in bits (midtread; `0` = ideal DAC).
    /// The quantization step is `a_max / (2^(bits-1) - 1)`.
    pub dac_bits: u32,
    /// Gaussian low-pass filter width σ in *samples* (`0` = no filter).
    pub filter_sigma: f64,
    /// Filter kernel half-width in units of σ (taps beyond `chop·σ`
    /// are dropped); ignored when `filter_sigma == 0`.
    pub filter_chop: f64,
    /// Nearest-neighbour crosstalk coupling between same-quadrature
    /// channels of adjacent qubits (`0` = perfectly isolated lines).
    pub crosstalk: f64,
    /// Maximum amplitude change between consecutive samples, as a
    /// fraction of `a_max` (`0` = unlimited slew).
    pub slew_limit: f64,
    /// SFQ pulse-train lowering; when set, amplitude quantization uses
    /// the SFQ LSB instead of the DAC step.
    pub sfq: Option<SfqParams>,
}

/// Names accepted by [`HardwareProfile::by_name`].
pub const PROFILE_NAMES: &[&str] = &["ideal", "transmon_awg_8bit", "sfq_bitstream"];

impl HardwareProfile {
    /// A perfect control stack: conditioning is the identity.
    pub fn ideal() -> Self {
        Self {
            name: "ideal".into(),
            sample_rate_ghz: 0.5,
            dac_bits: 0,
            filter_sigma: 0.0,
            filter_chop: 0.0,
            crosstalk: 0.0,
            slew_limit: 0.0,
            sfq: None,
        }
    }

    /// A room-temperature AWG driving a transmon line: 8-bit DAC,
    /// one-sample Gaussian output filter, 2% nearest-neighbour
    /// crosstalk, and a half-range-per-sample slew limit.
    pub fn transmon_awg_8bit() -> Self {
        Self {
            name: "transmon_awg_8bit".into(),
            sample_rate_ghz: 0.5,
            dac_bits: 8,
            filter_sigma: 1.0,
            filter_chop: 3.0,
            crosstalk: 0.02,
            slew_limit: 0.5,
            sfq: None,
        }
    }

    /// An SFQ-style pulse-train controller: amplitudes are quantized to
    /// integer multiples of one pulse against a 25 GHz clock (see
    /// [`SfqParams::lsb`]).
    pub fn sfq_bitstream() -> Self {
        Self {
            name: "sfq_bitstream".into(),
            sample_rate_ghz: 25.0,
            dac_bits: 0,
            filter_sigma: 0.0,
            filter_chop: 0.0,
            crosstalk: 0.0,
            slew_limit: 0.0,
            sfq: Some(SfqParams { clock_ghz: 25.0 }),
        }
    }

    /// Looks up a named preset; see [`PROFILE_NAMES`].
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "ideal" => Some(Self::ideal()),
            "transmon_awg_8bit" => Some(Self::transmon_awg_8bit()),
            "sfq_bitstream" => Some(Self::sfq_bitstream()),
            _ => None,
        }
    }

    /// `true` when every constraint is off and conditioning is exactly
    /// the identity map.
    pub fn is_identity(&self) -> bool {
        self.dac_bits == 0
            && self.filter_sigma <= 0.0
            && self.crosstalk == 0.0
            && self.slew_limit <= 0.0
            && self.sfq.is_none()
    }

    /// A stable (platform- and run-independent) FNV-1a hash over every
    /// field that affects conditioning. Identity profiles hash to 0 so a
    /// pulse library built without a profile interoperates with one
    /// built under `ideal`.
    pub fn stable_hash(&self) -> u64 {
        if self.is_identity() {
            return 0;
        }
        let mut bytes = self.name.as_bytes().to_vec();
        bytes.extend(self.sample_rate_ghz.to_bits().to_le_bytes());
        bytes.extend(self.dac_bits.to_le_bytes());
        for x in [
            self.filter_sigma,
            self.filter_chop,
            self.crosstalk,
            self.slew_limit,
        ] {
            bytes.extend(x.to_bits().to_le_bytes());
        }
        match &self.sfq {
            Some(s) => {
                bytes.push(1);
                bytes.extend(s.clock_ghz.to_bits().to_le_bytes());
            }
            None => bytes.push(0),
        }
        // 0 is reserved for "no profile"; remap the (absurdly unlikely)
        // collision to a fixed non-zero value.
        match epoc_rt::fnv1a(&bytes) {
            0 => 0x9e37_79b9_7f4a_7c15,
            v => v,
        }
    }

    /// The amplitude quantization step for drives bounded by `a_max`,
    /// or `None` when amplitudes are continuous. SFQ lowering takes
    /// precedence over the DAC word size.
    pub fn quant_step(&self, dt: f64, a_max: f64) -> Option<f64> {
        if let Some(sfq) = &self.sfq {
            return Some(sfq.lsb(dt, a_max));
        }
        if self.dac_bits >= 2 {
            let levels = (1u64 << (self.dac_bits - 1)) - 1;
            return Some(a_max / levels as f64);
        }
        None
    }

    /// Conditions `controls` (channel-major: `controls[channel][slot]`)
    /// in place: slew-clip → quantize → Gaussian low-pass → crosstalk
    /// mix. `dt` is the slot length in ns and `a_max` the drive bound
    /// the amplitudes were optimized under. Channel ordering follows the
    /// device model: `X0, Y0, X1, Y1, …`, so crosstalk couples channel
    /// `c` with `c ± 2` (the same quadrature on adjacent qubits).
    ///
    /// Allocation-free after workspace warm-up: `ws` buffers are resized
    /// once and reused. Purely sequential with a fixed accumulation
    /// order, so output bytes depend only on input bytes.
    pub fn condition_controls(
        &self,
        dt: f64,
        a_max: f64,
        controls: &mut [Vec<f64>],
        ws: &mut ConditionWorkspace,
    ) {
        if self.is_identity() || controls.is_empty() {
            return;
        }
        // 1. Slew-rate clip: the DAC output cannot move more than
        //    `slew_limit * a_max` between consecutive samples (starting
        //    from the idle level 0).
        if self.slew_limit > 0.0 {
            let lim = self.slew_limit * a_max;
            for chan in controls.iter_mut() {
                let mut prev = 0.0f64;
                for x in chan.iter_mut() {
                    *x = x.clamp(prev - lim, prev + lim);
                    prev = *x;
                }
            }
        }
        // 2. Amplitude quantization (midtread): idempotent by
        //    construction — a value already on the grid rounds to itself.
        if let Some(step) = self.quant_step(dt, a_max) {
            for chan in controls.iter_mut() {
                for x in chan.iter_mut() {
                    *x = ((*x / step).round() * step).clamp(-a_max, a_max);
                }
            }
        }
        // 3. Gaussian low-pass (the analog output chain): normalized
        //    zero-padded convolution with a symmetric kernel.
        if let Some(half) = self.kernel_into(&mut ws.kernel) {
            for chan in controls.iter_mut() {
                convolve(&ws.kernel, half, chan, &mut ws.line);
            }
        }
        // 4. Crosstalk mix: each line picks up a fraction of its
        //    same-quadrature neighbours; row-normalized so a uniform
        //    drive is preserved.
        if self.crosstalk != 0.0 && controls.len() > 2 {
            let n_chan = controls.len();
            let n_slots = controls[0].len();
            ws.mix.clear();
            for chan in controls.iter() {
                ws.mix.extend_from_slice(chan);
            }
            let xt = self.crosstalk;
            for (c, chan) in controls.iter_mut().enumerate() {
                let deg = neighbor_degree(c, n_chan);
                let norm = 1.0 + xt * deg as f64;
                for (t, out) in chan.iter_mut().enumerate() {
                    let mut acc = ws.mix[c * n_slots + t];
                    if c >= 2 {
                        acc += xt * ws.mix[(c - 2) * n_slots + t];
                    }
                    if c + 2 < n_chan {
                        acc += xt * ws.mix[(c + 2) * n_slots + t];
                    }
                    *out = acc / norm;
                }
            }
        }
    }

    /// Pulls a fidelity gradient back through the conditioning map's
    /// linear stages: `grad` is channel-major flat
    /// (`grad[c * n_slots + s]`), holding ∂F/∂(conditioned u) on entry
    /// and ∂F/∂(raw u) on exit under the straight-through convention
    /// (quantize and slew-clip are treated as the identity; filter and
    /// crosstalk are transposed exactly).
    pub fn adjoint_grad(
        &self,
        n_channels: usize,
        n_slots: usize,
        grad: &mut [f64],
        ws: &mut ConditionWorkspace,
    ) {
        debug_assert_eq!(grad.len(), n_channels * n_slots);
        if self.is_identity() || n_channels == 0 || n_slots == 0 {
            return;
        }
        // Forward order is filter then crosstalk, so the adjoint applies
        // crosstalkᵀ first, then the (self-adjoint) filter.
        if self.crosstalk != 0.0 && n_channels > 2 {
            let xt = self.crosstalk;
            ws.mix.clear();
            ws.mix.extend_from_slice(grad);
            for c in 0..n_channels {
                let own = 1.0 + xt * neighbor_degree(c, n_channels) as f64;
                for t in 0..n_slots {
                    let mut acc = ws.mix[c * n_slots + t] / own;
                    if c >= 2 {
                        let nn = 1.0 + xt * neighbor_degree(c - 2, n_channels) as f64;
                        acc += xt * ws.mix[(c - 2) * n_slots + t] / nn;
                    }
                    if c + 2 < n_channels {
                        let nn = 1.0 + xt * neighbor_degree(c + 2, n_channels) as f64;
                        acc += xt * ws.mix[(c + 2) * n_slots + t] / nn;
                    }
                    grad[c * n_slots + t] = acc;
                }
            }
        }
        if let Some(half) = self.kernel_into(&mut ws.kernel) {
            for row in grad.chunks_exact_mut(n_slots) {
                convolve(&ws.kernel, half, row, &mut ws.line);
            }
        }
    }

    /// Writes the normalized Gaussian kernel into `buf`, returning its
    /// half-width in taps, or `None` when filtering is off.
    fn kernel_into(&self, buf: &mut Vec<f64>) -> Option<usize> {
        if self.filter_sigma <= 0.0 {
            return None;
        }
        let half = (self.filter_chop * self.filter_sigma).ceil().max(0.0) as usize;
        buf.clear();
        let mut sum = 0.0f64;
        for k in 0..=2 * half {
            let x = k as f64 - half as f64;
            let w = (-0.5 * (x / self.filter_sigma).powi(2)).exp();
            buf.push(w);
            sum += w;
        }
        for w in buf.iter_mut() {
            *w /= sum;
        }
        Some(half)
    }
}

/// Convolves `row` in place with the symmetric `kernel` of half-width
/// `half` in taps, zero-padded at both ends; `line` is scratch.
fn convolve(kernel: &[f64], half: usize, row: &mut [f64], line: &mut Vec<f64>) {
    line.clear();
    line.extend_from_slice(row);
    for (t, out) in row.iter_mut().enumerate() {
        let mut acc = 0.0f64;
        for (ki, w) in kernel.iter().enumerate() {
            let src = t as isize + ki as isize - half as isize;
            if src >= 0 && (src as usize) < line.len() {
                acc += w * line[src as usize];
            }
        }
        *out = acc;
    }
}

/// Number of same-quadrature neighbours of channel `c` on an
/// interleaved `X0, Y0, X1, Y1, …` line of `n_chan` channels.
fn neighbor_degree(c: usize, n_chan: usize) -> usize {
    usize::from(c >= 2) + usize::from(c + 2 < n_chan)
}

/// A stable hash of an optional profile: `None` (and identity profiles)
/// hash to 0; everything else to [`HardwareProfile::stable_hash`].
pub fn profile_hash(profile: Option<&HardwareProfile>) -> u64 {
    profile.map_or(0, HardwareProfile::stable_hash)
}

/// Reusable scratch for [`HardwareProfile::condition_controls`] and
/// [`HardwareProfile::adjoint_grad`]: buffers grow on first use and are
/// reused afterwards, keeping the hot path allocation-free.
#[derive(Debug, Default)]
pub struct ConditionWorkspace {
    kernel: Vec<f64>,
    line: Vec<f64>,
    mix: Vec<f64>,
}

impl ConditionWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A_MAX: f64 = 0.12566370614359174; // 2π · 0.02, the transmon drive bound
    const DT: f64 = 2.0;

    /// Deterministic xorshift64* for property inputs.
    struct Rng(u64);
    impl Rng {
        fn next_f64(&mut self) -> f64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            let u = self.0.wrapping_mul(0x2545_f491_4f6c_dd1d);
            // Uniform in [-1, 1).
            (u >> 11) as f64 / (1u64 << 52) as f64 - 1.0
        }
    }

    fn random_controls(rng: &mut Rng, n_chan: usize, n_slots: usize) -> Vec<Vec<f64>> {
        (0..n_chan)
            .map(|_| (0..n_slots).map(|_| rng.next_f64() * A_MAX).collect())
            .collect()
    }

    #[test]
    fn presets_resolve_by_name() {
        for &name in PROFILE_NAMES {
            let p = HardwareProfile::by_name(name).expect("preset");
            assert_eq!(p.name, name);
        }
        assert!(HardwareProfile::by_name("warp_drive").is_none());
    }

    #[test]
    fn ideal_profile_is_identity_and_hashes_to_zero() {
        let p = HardwareProfile::ideal();
        assert!(p.is_identity());
        assert_eq!(p.stable_hash(), 0);
        assert_eq!(profile_hash(None), 0);
        assert_eq!(profile_hash(Some(&p)), 0);
        let mut u = random_controls(&mut Rng(7), 4, 32);
        let before = u.clone();
        let mut ws = ConditionWorkspace::new();
        p.condition_controls(DT, A_MAX, &mut u, &mut ws);
        assert_eq!(u, before);
    }

    #[test]
    fn preset_hashes_are_distinct_and_stable() {
        let awg = HardwareProfile::transmon_awg_8bit().stable_hash();
        let sfq = HardwareProfile::sfq_bitstream().stable_hash();
        assert_ne!(awg, 0);
        assert_ne!(sfq, 0);
        assert_ne!(awg, sfq);
        // Stable across constructions and builds: persisted library
        // sections are keyed by these values.
        assert_eq!(awg, 0xb3b3_1a5b_3204_6fac);
        assert_eq!(sfq, 0x7978_60f8_a455_ae10);
        // Sensitive to every conditioning parameter.
        let mut tweaked = HardwareProfile::transmon_awg_8bit();
        tweaked.crosstalk = 0.03;
        assert_ne!(awg, tweaked.stable_hash());
    }

    #[test]
    fn quantization_is_idempotent() {
        let p = HardwareProfile {
            filter_sigma: 0.0,
            crosstalk: 0.0,
            slew_limit: 0.0,
            ..HardwareProfile::transmon_awg_8bit()
        };
        let mut ws = ConditionWorkspace::new();
        let mut rng = Rng(0xDEAD_BEEF);
        for trial in 0..32 {
            let mut once = random_controls(&mut rng, 4, 48);
            p.condition_controls(DT, A_MAX, &mut once, &mut ws);
            let mut twice = once.clone();
            p.condition_controls(DT, A_MAX, &mut twice, &mut ws);
            assert_eq!(once, twice, "quantize not idempotent (trial {trial})");
        }
    }

    #[test]
    fn sfq_quantization_is_idempotent() {
        let p = HardwareProfile::sfq_bitstream();
        let mut ws = ConditionWorkspace::new();
        let mut rng = Rng(42);
        let mut once = random_controls(&mut rng, 2, 64);
        p.condition_controls(DT, A_MAX, &mut once, &mut ws);
        let mut twice = once.clone();
        p.condition_controls(DT, A_MAX, &mut twice, &mut ws);
        assert_eq!(once, twice);
    }

    #[test]
    fn full_pipeline_is_idempotent_in_quantize_stage_only() {
        // The filter is NOT idempotent — conditioning must happen
        // exactly once per waveform. Pin that assumption so nobody
        // "simplifies" emission into a double-condition.
        let p = HardwareProfile::transmon_awg_8bit();
        let mut ws = ConditionWorkspace::new();
        let mut once = random_controls(&mut Rng(3), 4, 48);
        p.condition_controls(DT, A_MAX, &mut once, &mut ws);
        let mut twice = once.clone();
        p.condition_controls(DT, A_MAX, &mut twice, &mut ws);
        assert_ne!(once, twice);
    }

    #[test]
    fn filtering_is_linear() {
        let p = HardwareProfile {
            dac_bits: 0,
            crosstalk: 0.0,
            slew_limit: 0.0,
            ..HardwareProfile::transmon_awg_8bit()
        };
        let mut ws = ConditionWorkspace::new();
        let mut rng = Rng(99);
        for _ in 0..16 {
            let x = random_controls(&mut rng, 2, 40);
            let y = random_controls(&mut rng, 2, 40);
            let (a, b) = (0.7, -1.3);
            let mut combo: Vec<Vec<f64>> = x
                .iter()
                .zip(&y)
                .map(|(xc, yc)| xc.iter().zip(yc).map(|(u, v)| a * u + b * v).collect())
                .collect();
            p.condition_controls(DT, A_MAX, &mut combo, &mut ws);
            let mut fx = x.clone();
            let mut fy = y.clone();
            p.condition_controls(DT, A_MAX, &mut fx, &mut ws);
            p.condition_controls(DT, A_MAX, &mut fy, &mut ws);
            for (cc, (fxc, fyc)) in combo.iter().zip(fx.iter().zip(&fy)) {
                for (c, (u, v)) in cc.iter().zip(fxc.iter().zip(fyc)) {
                    assert!((c - (a * u + b * v)).abs() < 1e-12, "filter not linear");
                }
            }
        }
    }

    #[test]
    fn conditioning_is_byte_deterministic() {
        // Same input, fresh workspaces, repeated runs: bit-identical
        // output. Conditioning never touches the worker pool or SIMD
        // dispatch, so this must hold everywhere.
        let p = HardwareProfile::transmon_awg_8bit();
        let base = random_controls(&mut Rng(0x5EED), 6, 64);
        let mut runs = Vec::new();
        for _ in 0..3 {
            let mut u = base.clone();
            let mut ws = ConditionWorkspace::new();
            p.condition_controls(DT, A_MAX, &mut u, &mut ws);
            let bits: Vec<Vec<u64>> = u
                .iter()
                .map(|c| c.iter().map(|x| x.to_bits()).collect())
                .collect();
            runs.push(bits);
        }
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[1], runs[2]);
    }

    #[test]
    fn slew_clip_bounds_sample_to_sample_steps() {
        let p = HardwareProfile {
            dac_bits: 0,
            filter_sigma: 0.0,
            crosstalk: 0.0,
            ..HardwareProfile::transmon_awg_8bit()
        };
        let lim = p.slew_limit * A_MAX;
        let mut u = vec![vec![A_MAX, -A_MAX, A_MAX, A_MAX, 0.0]];
        let mut ws = ConditionWorkspace::new();
        p.condition_controls(DT, A_MAX, &mut u, &mut ws);
        let mut prev = 0.0;
        for &x in &u[0] {
            assert!((x - prev).abs() <= lim + 1e-15);
            prev = x;
        }
    }

    #[test]
    fn crosstalk_preserves_uniform_drive_and_mixes_neighbours() {
        let p = HardwareProfile {
            dac_bits: 0,
            filter_sigma: 0.0,
            slew_limit: 0.0,
            ..HardwareProfile::transmon_awg_8bit()
        };
        let mut ws = ConditionWorkspace::new();
        // Row normalization: a drive that is equal on every
        // same-quadrature channel is unchanged.
        let mut uniform = vec![vec![0.05; 8]; 6];
        let before = uniform.clone();
        p.condition_controls(DT, A_MAX, &mut uniform, &mut ws);
        for (a, b) in uniform.iter().flatten().zip(before.iter().flatten()) {
            assert!((a - b).abs() < 1e-15);
        }
        // A lone X0 drive leaks onto X1 (channel 2) but not Y0/Y1.
        let mut lone = vec![vec![0.0; 4]; 6];
        lone[0] = vec![0.1; 4];
        p.condition_controls(DT, A_MAX, &mut lone, &mut ws);
        assert!(lone[2][0] > 0.0, "X0 should leak onto X1");
        assert_eq!(lone[1][0], 0.0, "X0 must not leak onto Y0");
        assert_eq!(lone[3][0], 0.0, "X0 must not leak onto Y1");
    }

    #[test]
    fn adjoint_matches_linear_map_transpose() {
        // ⟨C x, y⟩ = ⟨x, Cᵀ y⟩ for the linear stages (filter ∘ crosstalk).
        let p = HardwareProfile {
            dac_bits: 0,
            slew_limit: 0.0,
            ..HardwareProfile::transmon_awg_8bit()
        };
        let (n_chan, n_slots) = (6, 24);
        let mut ws = ConditionWorkspace::new();
        let mut rng = Rng(0xA11);
        let x = random_controls(&mut rng, n_chan, n_slots);
        let y = random_controls(&mut rng, n_chan, n_slots);
        let mut cx = x.clone();
        p.condition_controls(DT, A_MAX, &mut cx, &mut ws);
        let mut cty: Vec<f64> = y.iter().flatten().copied().collect();
        p.adjoint_grad(n_chan, n_slots, &mut cty, &mut ws);
        let lhs: f64 = cx
            .iter()
            .flatten()
            .zip(y.iter().flatten())
            .map(|(a, b)| a * b)
            .sum();
        let rhs: f64 = x
            .iter()
            .flatten()
            .zip(cty.iter())
            .map(|(a, b)| a * b)
            .sum();
        assert!(
            (lhs - rhs).abs() < 1e-12,
            "adjoint mismatch: {lhs} vs {rhs}"
        );
    }
}
