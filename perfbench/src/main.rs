//! Layered benchmark for the WiMi reproduction.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload ident|campaign|fleet --seed N --seconds S --trace 0|1
//! ```
//!
//! Each run builds its inputs from `--seed`, checks the program's outputs
//! (recorded values at the canonical seed, determinism across repetitions,
//! artifact validators, conservation), measures for `--seconds` and prints
//! one JSON result line last on stdout. `--trace 0` reports the end-to-end
//! metrics; `--trace 1` repeats the workload through the same public
//! pieces the library uses, with spans around each layer call, and
//! reports the per-layer metrics. See `perfbench/README.md`.

mod campaign;
mod fleet;
mod ident;
mod replica;
mod report;
mod spans;

use std::time::{Duration, Instant};

use report::Outcome;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measurement window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }

    /// The workload's input seed: seed 0 is the workload's canonical seed
    /// (the one its recorded values belong to); any other seed is mixed
    /// into it.
    pub fn input_seed(&self, canonical: u64) -> u64 {
        if self.seed == 0 {
            canonical
        } else {
            mix(canonical, self.seed)
        }
    }

    /// `n` input seeds for a run that repeats its workload on `n`
    /// independent inputs: [`Args::input_seed`] and `n - 1` seeds mixed
    /// from it.
    pub fn input_seeds(&self, canonical: u64, n: usize) -> Vec<u64> {
        let first = self.input_seed(canonical);
        std::iter::once(first)
            .chain((1..n as u64).map(|k| mix(first, k)))
            .collect()
    }
}

/// SplitMix64 finaliser over `base ^ k·φ`, kept below 2^48 so seed
/// arithmetic inside the harness (`seed + 900_000 + …`) never overflows.
fn mix(base: u64, k: u64) -> u64 {
    let mut z = base ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & ((1 << 48) - 1)
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            // Any integer names a seed; negative ones wrap onto u64.
            "--seed" => {
                let n = value.parse::<i128>().map_err(|e| format!("--seed: {e}"))?;
                seed = Some(n as u64);
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !["ident", "campaign", "fleet"].contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (ident, campaign, fleet)"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// The repository root (the benchmark's package sits one level below it).
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The commit the sources came from, when the checkout is a git work
/// tree; `"unknown"` otherwise.
fn commit() -> String {
    let git = repo_root().join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    let id = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).unwrap_or_default(),
        None => head.to_owned(),
    };
    let id = id.trim();
    if id.len() == 40 && id.bytes().all(|b| b.is_ascii_hexdigit()) {
        id.to_owned()
    } else {
        "unknown".to_owned()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload ident|campaign|fleet --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let started = Instant::now();
    let mut out = Outcome::default();
    out.note_str("workload", &args.workload);
    out.note("seed", args.seed);
    out.note("run_seconds", args.seconds);
    out.note("trace", u8::from(args.trace));
    out.note(
        "host_cpus",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    out.note("workers", wimi_core::par::max_threads());
    out.note_str(
        "wimi_threads_env",
        &std::env::var("WIMI_THREADS").unwrap_or_default(),
    );
    out.note_str("commit", &commit());

    match args.workload.as_str() {
        "ident" => ident::run(&args, &mut out),
        "campaign" => campaign::run(&args, &mut out),
        _ => fleet::run(&args, &mut out),
    }
    if !args.trace {
        out.set("peak_rss_mb", report::peak_rss_mb());
    }
    out.note("wall_s", started.elapsed().as_secs_f64());
    out.print(args.trace);
}
