//! Commodity-NIC hardware impairments.
//!
//! The raw CSI phase of a commodity Wi-Fi NIC is corrupted per packet by
//! carrier frequency offset (CFO), sampling frequency offset (SFO) and
//! packet boundary delay (PBD) — paper Eq. (5):
//!
//! `φ̃_{k,i} = φ_{k,i} + k(λ_b + λ_s) + β + Z`
//!
//! Crucially these offsets are *common to all antennas of one NIC* (shared
//! oscillator and sampling clock), which is what makes the cross-antenna
//! phase difference stable (Eq. 6). The amplitude path adds AGC wobble
//! (common), per-antenna gain ripple, thermal noise, occasional impulse
//! noise bursts and outliers (paper Fig. 3), and Intel 5300-style 8-bit
//! quantisation.

use crate::channel::StandardNormal;
use crate::complex::Complex;
use crate::csi::CsiPacket;
use rand::Rng;

/// Hardware impairment configuration.
///
/// The defaults are tuned so the simulated raw CSI reproduces the paper's
/// observations: raw phase uniformly distributed over `[0, 2π)` across
/// packets (Fig. 2), cross-antenna phase difference spread of roughly 18°
/// before subcarrier selection (Fig. 12), and amplitude series with visible
/// impulse noise and outliers (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareProfile {
    /// Apply the per-packet common phase corruption (CFO/PBD intercept,
    /// uniform over `[0, 2π)`, plus the SFO/PBD slope below). Real NICs
    /// always have it; turn off only for idealised tests.
    pub phase_corruption: bool,
    /// Std dev of the per-packet SFO+PBD phase slope, radians per
    /// subcarrier index.
    pub phase_slope_std: f64,
    /// Complex AWGN amplitude (std dev per I/Q component) relative to the
    /// unit-amplitude LoS reference.
    pub noise_std: f64,
    /// Std dev of the common (AGC) per-packet gain wobble, dB.
    pub agc_wobble_db: f64,
    /// Std dev of the *per-antenna* gain ripple, dB (does not cancel in the
    /// cross-antenna ratio; kept small).
    pub antenna_gain_ripple_db: f64,
    /// Probability that a packet is hit by an impulse-noise burst.
    pub impulse_probability: f64,
    /// Peak amplitude of an impulse burst relative to the LoS reference.
    pub impulse_magnitude: f64,
    /// Probability that a packet's amplitude is an outlier (far outside the
    /// normal fluctuation region).
    pub outlier_probability: f64,
    /// Multiplicative factor applied to an outlier packet's amplitude.
    pub outlier_factor: f64,
    /// Quantise CSI to signed 8-bit I/Q like the Intel 5300 CSI tool.
    pub quantize_8bit: bool,
}

impl Default for HardwareProfile {
    fn default() -> Self {
        HardwareProfile {
            phase_corruption: true,
            phase_slope_std: 0.015,
            noise_std: 0.02,
            agc_wobble_db: 2.5,
            antenna_gain_ripple_db: 0.10,
            impulse_probability: 0.05,
            impulse_magnitude: 0.22,
            outlier_probability: 0.015,
            outlier_factor: 2.6,
            quantize_8bit: true,
        }
    }
}

impl HardwareProfile {
    /// An idealised NIC with no impairments at all (for unit tests and
    /// ablations).
    pub fn ideal() -> Self {
        HardwareProfile {
            phase_corruption: false,
            phase_slope_std: 0.0,
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            impulse_magnitude: 0.0,
            outlier_probability: 0.0,
            outlier_factor: 1.0,
            quantize_8bit: false,
        }
    }

    /// Returns a copy without the CFO/SFO/PBD phase corruption (keeps
    /// amplitude impairments) — used to ablate the phase-difference step.
    pub fn without_phase_corruption(mut self) -> Self {
        self.phase_corruption = false;
        self.phase_slope_std = 0.0;
        self
    }

    /// Applies all impairments to a packet in place.
    ///
    /// Convenience wrapper over [`HardwareProfile::apply_planes`] for the
    /// array-of-structs [`CsiPacket`] layout (tests, single frames). The
    /// simulator's capture loop calls `apply_planes` on the capture's flat
    /// planes directly.
    pub fn apply<R: Rng + ?Sized>(&self, packet: &mut CsiPacket, rng: &mut R) {
        let n_ant = packet.n_antennas();
        let n_sub = packet.n_subcarriers();
        let mut re = Vec::with_capacity(n_ant * n_sub);
        let mut im = Vec::with_capacity(n_ant * n_sub);
        for a in 0..n_ant {
            for h in packet.antenna_row(a) {
                re.push(h.re);
                im.push(h.im);
            }
        }
        self.apply_planes(&mut re, &mut im, n_ant, n_sub, rng);
        for a in 0..n_ant {
            for k in 0..n_sub {
                *packet.get_mut(a, k) = Complex::new(re[a * n_sub + k], im[a * n_sub + k]);
            }
        }
    }

    /// Applies all impairments to one packet stored as flat antenna-major
    /// `(re, im)` planes of length `n_antennas · n_subcarriers` — the
    /// allocation-free hot path.
    ///
    /// The phase corruption (CFO intercept + SFO/PBD slope) and the AGC
    /// wobble are drawn once per packet and applied to *every antenna
    /// identically*, modelling the shared oscillator/sampling clock of one
    /// NIC. Noise, gain ripple, impulse bursts and outliers are per antenna.
    ///
    /// # Panics
    ///
    /// Panics if the plane lengths differ from
    /// `n_antennas · n_subcarriers`.
    // wlint: hot
    pub fn apply_planes<R: Rng + ?Sized>(
        &self,
        re: &mut [f64],
        im: &mut [f64],
        n_antennas: usize,
        n_subcarriers: usize,
        rng: &mut R,
    ) {
        assert_eq!(re.len(), n_antennas * n_subcarriers, "re plane length");
        assert_eq!(im.len(), n_antennas * n_subcarriers, "im plane length");

        // Common-to-all-antennas corruption.
        let (cfo_intercept, slope) = if self.phase_corruption {
            (
                rng.gen_range(0.0..std::f64::consts::TAU),
                self.phase_slope_std * rng.sample(StandardNormal),
            )
        } else {
            (0.0, 0.0)
        };
        let agc = db_to_amp(self.agc_wobble_db * rng.sample(StandardNormal));

        // k(λ_b + λ_s) + β phase corruption, Eq. (5): one `cis` per
        // subcarrier per packet, applied to every antenna. This pass draws
        // no randomness, so the per-antenna draws below keep their order;
        // and `h·corrupt·gain` is left-associative, so storing `h·corrupt`
        // in the plane and scaling it by `gain` below rounds exactly like
        // the single expression.
        for k in 0..n_subcarriers {
            let corrupt = Complex::cis(cfo_intercept + slope * k as f64);
            let column = re.iter_mut().zip(im.iter_mut()).skip(k);
            for (r, i) in column.step_by(n_subcarriers) {
                let h = Complex::new(*r, *i) * corrupt;
                *r = h.re;
                *i = h.im;
            }
        }

        let mut samples = re.iter_mut().zip(im.iter_mut());
        for _ in 0..n_antennas {
            let ripple = db_to_amp(self.antenna_gain_ripple_db * rng.sample(StandardNormal));
            let impulse_hit = rng.gen::<f64>() < self.impulse_probability;
            let outlier_hit = rng.gen::<f64>() < self.outlier_probability;
            let outlier_gain = if outlier_hit {
                // Outliers can spike high or collapse low.
                if rng.gen::<bool>() {
                    self.outlier_factor
                } else {
                    1.0 / self.outlier_factor
                }
            } else {
                1.0
            };

            let gain = agc * ripple * outlier_gain;
            for (r, i) in samples.by_ref().take(n_subcarriers) {
                // The plane already holds `h·corrupt` (pass above).
                let mut h = Complex::new(*r, *i) * gain;
                // Impulse burst: a short broadband additive spike.
                if impulse_hit {
                    let spike = Complex::from_polar(
                        self.impulse_magnitude * rng.gen::<f64>(),
                        rng.gen_range(0.0..std::f64::consts::TAU),
                    );
                    h += spike;
                }
                // Thermal noise.
                if self.noise_std > 0.0 {
                    h += Complex::new(
                        self.noise_std * rng.sample(StandardNormal),
                        self.noise_std * rng.sample(StandardNormal),
                    );
                }
                *r = h.re;
                *i = h.im;
            }
        }

        if self.quantize_8bit {
            quantize_intel5300_planes(re, im);
        }
    }
}

fn db_to_amp(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Quantises a packet's I/Q samples to signed 8-bit integers, scaled to the
/// per-packet maximum component — the Intel 5300 CSI tool's storage format.
pub fn quantize_intel5300(packet: &mut CsiPacket) {
    let n_ant = packet.n_antennas();
    let n_sub = packet.n_subcarriers();
    let mut re = Vec::with_capacity(n_ant * n_sub);
    let mut im = Vec::with_capacity(n_ant * n_sub);
    for a in 0..n_ant {
        for h in packet.antenna_row(a) {
            re.push(h.re);
            im.push(h.im);
        }
    }
    quantize_intel5300_planes(&mut re, &mut im);
    for a in 0..n_ant {
        for k in 0..n_sub {
            *packet.get_mut(a, k) = Complex::new(re[a * n_sub + k], im[a * n_sub + k]);
        }
    }
}

/// [`quantize_intel5300`] on one packet's flat `(re, im)` planes — the
/// allocation-free hot path. The lanes are scanned in plane order, which
/// matches the packet's antenna-major `(a, k)` order exactly.
// wlint: hot
pub fn quantize_intel5300_planes(re: &mut [f64], im: &mut [f64]) {
    let mut max_c: f64 = 0.0;
    for (&r, &i) in re.iter().zip(im.iter()) {
        max_c = max_c.max(r.abs()).max(i.abs());
    }
    // `max_c` is a maximum of absolute values, so non-positive means the
    // packet is all-zero and there is nothing to quantise.
    if max_c <= 0.0 {
        return;
    }
    // Below 127/f64::MAX (≈7.1e-307) the scale overflows to ∞ and every
    // sample, zeros included, would come back NaN. Lifting the samples by
    // an exact power of two keeps them on the same 8-bit grid. `lift` is 1
    // whenever the scale is finite, and ×1 and ÷1 are exact, so those
    // packets keep their bits.
    let lift = if (127.0 / max_c).is_finite() {
        1.0
    } else {
        QUANTIZE_LIFT
    };
    let scale = 127.0 / (max_c * lift);
    for x in re.iter_mut() {
        *x = (*x * lift * scale).round() / scale / lift;
    }
    for x in im.iter_mut() {
        *x = (*x * lift * scale).round() / scale / lift;
    }
}

/// 2^600 (biased exponent 1023 + 600, zero mantissa): lifts any tiny
/// maximum (2^−1074 ≤ max < 2^−1016) to where `127/max` is finite, far
/// from overflow.
const QUANTIZE_LIFT: f64 = f64::from_bits((1023 + 600) << 52);

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn clean_packet(n_ant: usize, n_sub: usize) -> CsiPacket {
        let data = (0..n_ant * n_sub)
            .map(|i| Complex::from_polar(1.0, 0.1 * (i % n_sub) as f64))
            .collect();
        CsiPacket::new(n_ant, n_sub, data)
    }

    #[test]
    fn ideal_profile_is_identity() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut p = clean_packet(3, 30);
        let orig = p.clone();
        HardwareProfile::ideal().apply(&mut p, &mut rng);
        assert_eq!(p, orig);
    }

    #[test]
    fn raw_phase_becomes_uniform_across_packets() {
        // Reproduces the paper's Fig. 2 observation: raw per-packet phase is
        // uniformly spread over the circle.
        let mut rng = StdRng::seed_from_u64(1);
        let prof = HardwareProfile::default();
        let mut phases = Vec::new();
        for _ in 0..400 {
            let mut p = clean_packet(2, 30);
            prof.apply(&mut p, &mut rng);
            phases.push(p.get(0, 10).arg());
        }
        // Circular mean resultant length should be tiny for uniform phases.
        let (s, c): (f64, f64) = phases
            .iter()
            .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
        let r = (s * s + c * c).sqrt() / phases.len() as f64;
        assert!(r < 0.15, "resultant length {r} too high for uniform phase");
    }

    #[test]
    fn cross_antenna_phase_difference_is_stable() {
        // The common CFO/PBD cancels between antennas: spread of the
        // difference must be far below the raw spread.
        let mut rng = StdRng::seed_from_u64(2);
        let prof = HardwareProfile {
            impulse_probability: 0.0,
            outlier_probability: 0.0,
            ..HardwareProfile::default()
        };
        let mut diffs = Vec::new();
        for _ in 0..300 {
            let mut p = clean_packet(2, 30);
            prof.apply(&mut p, &mut rng);
            diffs.push((p.get(0, 10) * p.get(1, 10).conj()).arg());
        }
        let (s, c): (f64, f64) = diffs
            .iter()
            .fold((0.0, 0.0), |(s, c), &p| (s + p.sin(), c + p.cos()));
        let r = (s * s + c * c).sqrt() / diffs.len() as f64;
        assert!(r > 0.95, "phase difference should concentrate, r = {r}");
    }

    #[test]
    fn impulse_noise_hits_some_packets_hard() {
        let mut rng = StdRng::seed_from_u64(3);
        let prof = HardwareProfile {
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.5,
            outlier_probability: 0.0,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        let mut deviations = Vec::new();
        for _ in 0..200 {
            let mut p = clean_packet(1, 30);
            prof.apply(&mut p, &mut rng);
            let amp = p.get(0, 0).abs();
            deviations.push((amp - 1.0).abs());
        }
        let hit = deviations.iter().filter(|&&d| d > 0.02).count();
        assert!(hit > 50 && hit < 160, "impulse hits = {hit}");
    }

    #[test]
    fn outliers_are_rare_and_large() {
        let mut rng = StdRng::seed_from_u64(4);
        let prof = HardwareProfile {
            noise_std: 0.0,
            agc_wobble_db: 0.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            outlier_probability: 0.2,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        let mut outliers = 0;
        let n = 500;
        for _ in 0..n {
            let mut p = clean_packet(1, 4);
            prof.apply(&mut p, &mut rng);
            let amp = p.get(0, 0).abs();
            if !(0.5..=2.0).contains(&amp) {
                outliers += 1;
            }
        }
        let frac = outliers as f64 / n as f64;
        assert!((frac - 0.2).abs() < 0.06, "outlier fraction = {frac}");
    }

    #[test]
    fn quantization_limits_resolution_but_preserves_shape() {
        let mut p = clean_packet(2, 30);
        let orig = p.clone();
        quantize_intel5300(&mut p);
        for a in 0..2 {
            for k in 0..30 {
                let err = (p.get(a, k) - orig.get(a, k)).abs();
                assert!(err < 2.0 / 127.0, "quantisation error too large: {err}");
            }
        }
    }

    #[test]
    fn quantize_zero_packet_is_noop() {
        let mut p = CsiPacket::zeros(1, 4);
        quantize_intel5300(&mut p);
        assert_eq!(p.get(0, 0), Complex::ZERO);
    }

    #[test]
    fn quantize_keeps_tiny_packets_finite() {
        // Regression: below max ≈ 7.1e-307 the scale 127/max overflowed to
        // ∞ and every sample, zeros included, came back NaN.
        assert_eq!(QUANTIZE_LIFT, 2f64.powi(600));
        for max_c in [1e-306, 7e-307, 1e-310, 5e-324] {
            let re = [max_c, -max_c / 3.0, 0.0, -0.0];
            let im = [max_c / 2.0, 0.0, -max_c, 0.7 * max_c];
            let (mut qre, mut qim) = (re, im);
            quantize_intel5300_planes(&mut qre, &mut qim);
            for (q, x) in qre.iter().chain(&qim).zip(re.iter().chain(&im)) {
                assert!(q.is_finite(), "max {max_c:e}: {x:e} became {q}");
                if *x == 0.0 {
                    assert_eq!(q.to_bits(), x.to_bits(), "zero must stay exact");
                }
                // Within half an 8-bit step (plus one subnormal ulp).
                assert!((q - x).abs() <= max_c / 254.0 * (1.0 + 1e-9) + 5e-324);
            }
            if (127.0 / max_c).is_finite() {
                // A finite scale keeps the plain formula's bits.
                let scale = 127.0 / max_c;
                for (q, x) in qre.iter().chain(&qim).zip(re.iter().chain(&im)) {
                    assert_eq!(q.to_bits(), ((x * scale).round() / scale).to_bits());
                }
            }
        }
    }

    #[test]
    fn agc_wobble_is_common_across_antennas() {
        // With only AGC wobble on, the ratio |H_a|/|H_b| must stay exactly 1.
        let mut rng = StdRng::seed_from_u64(5);
        let prof = HardwareProfile {
            phase_slope_std: 0.0,
            noise_std: 0.0,
            agc_wobble_db: 2.0,
            antenna_gain_ripple_db: 0.0,
            impulse_probability: 0.0,
            outlier_probability: 0.0,
            quantize_8bit: false,
            ..HardwareProfile::default()
        };
        for _ in 0..50 {
            let mut p = clean_packet(2, 4);
            prof.apply(&mut p, &mut rng);
            let ratio = p.get(0, 1).abs() / p.get(1, 1).abs();
            assert!((ratio - 1.0).abs() < 1e-9, "AGC failed to cancel: {ratio}");
        }
    }
}
