//! Absolute bit pins for the per-packet and per-measurement hot path.
//!
//! Every other determinism check compares one thread shape or one data
//! layout against another, so a change that reassociates a float sum in
//! the simulator or the extractor would pass them all. These digests pin
//! the exact bits instead: FNV-1a over the `to_bits` of every capture
//! plane sample and of every measurement outcome. Any speed work on
//! capture, phase calibration or γ resolution must leave them unchanged.

use wimi::core::{FeatureError, Measurement, WiMi, WiMiConfig};
use wimi::phy::channel::Environment;
use wimi::phy::csi::{CsiCapture, CsiSource};
use wimi::phy::fault::FaultPlan;
use wimi::phy::material::LIQUIDS;
use wimi::phy::scenario::{Scenario, Simulator};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn capture(&mut self, cap: &CsiCapture) {
        self.word(cap.len() as u64);
        let (re, im) = cap.planes();
        for (&r, &i) in re.iter().zip(im) {
            self.float(r);
            self.float(i);
        }
    }

    fn measurement(&mut self, m: &Measurement) {
        let q = &m.quality;
        for n in [
            q.baseline_packets_total,
            q.baseline_packets_kept,
            q.target_packets_total,
            q.target_packets_kept,
            q.pairs_attempted,
            q.pairs_resolved,
            q.subcarriers_rejected,
        ] {
            self.word(n as u64);
        }
        for &a in &q.antennas_dropped {
            self.word(a as u64);
        }
        match &m.feature {
            Ok(f) => {
                self.word(0);
                self.word(f.pair.0 as u64);
                self.word(f.pair.1 as u64);
                for &k in &f.subcarriers {
                    self.word(k as u64);
                }
                for v in f.omega.iter().chain(&f.delta_theta).chain(&f.delta_psi) {
                    self.float(*v);
                }
                self.word(i64::from(f.gamma) as u64);
                self.float(f.dispersion);
            }
            Err(e) => {
                self.word(1);
                match *e {
                    FeatureError::NoConsistentFeature { best_dispersion } => {
                        self.word(10);
                        self.float(best_dispersion);
                    }
                    FeatureError::InsufficientPackets { kept, needed } => {
                        self.word(11);
                        self.word(kept as u64);
                        self.word(needed as u64);
                    }
                    FeatureError::AntennaFailed { antenna } => {
                        self.word(12);
                        self.word(antenna as u64);
                    }
                    FeatureError::EmptyCapture => self.word(13),
                    FeatureError::DimensionMismatch => self.word(14),
                    FeatureError::NeedTwoAntennas => self.word(15),
                    FeatureError::DegenerateAmplitude => self.word(16),
                }
            }
        }
    }
}

fn simulator(env: Environment, seed: u64, fault: bool) -> Simulator {
    let scenario = Scenario::builder().environment(env).build();
    let mut sim = Simulator::new(scenario, seed);
    if fault {
        sim.set_fault_plan(Some(FaultPlan::hostile(seed).scaled(0.25)));
    }
    sim
}

#[test]
fn capture_planes_are_bit_pinned() {
    let mut digests = Vec::new();
    for (e, env) in Environment::ALL.into_iter().enumerate() {
        for packets in [8usize, 20] {
            for fault in [false, true] {
                let seed = 40 + 10 * e as u64 + packets as u64;
                let mut sim = simulator(env, seed, fault);
                let mut h = Fnv::new();
                h.capture(&sim.capture(packets));
                sim.set_liquid(Some(LIQUIDS[e].into()));
                h.capture(&sim.capture(packets));
                digests.push(h.0);
            }
        }
    }
    // Order: {Hall, Lab, Library} × {8, 20} packets × {clean, fault 0.25};
    // each digest covers the baseline then the liquid capture.
    let expected: [u64; 12] = [
        0xb1ef_0766_0567_1954,
        0xac22_8bcd_2ba5_f564,
        0x7a71_a1d2_82bd_7240,
        0x3f31_6ca9_ad53_328d,
        0xb6df_17e1_d3c6_58e7,
        0x32de_6a3e_2396_2f29,
        0x1fd2_bb7f_d165_b4b7,
        0x7acc_e382_cc55_a111,
        0x61ef_7deb_b7a3_e22a,
        0x539a_3856_07c3_ab07,
        0x1cbf_c1f1_8738_a84c,
        0xf4b6_c4f6_d551_4608,
    ];
    assert_eq!(digests, expected, "capture plane bits drifted");
}

#[test]
fn measurement_outcomes_are_bit_pinned() {
    let wimi = WiMi::new(WiMiConfig::default());
    let mut h = Fnv::new();
    let mut ok = 0usize;
    for seed in 0..48u64 {
        let env = Environment::ALL[seed as usize % 3];
        let packets = if seed % 2 == 0 { 20 } else { 8 };
        let mut sim = simulator(env, 1_000 + seed, seed % 4 == 3);
        let baseline = sim.capture(packets);
        sim.set_liquid(Some(LIQUIDS[seed as usize % LIQUIDS.len()].into()));
        let target = sim.capture(packets);
        let m = wimi.measure(&baseline, &target);
        ok += usize::from(m.is_ok());
        h.measurement(&m);
    }
    // 36 of the 48 measurements extract a feature; the rest pin their
    // error variant and screening counts.
    assert_eq!(
        (ok, h.0),
        (36, 0xf201_f992_3aca_2f88),
        "measurement outcome bits drifted"
    );
}
