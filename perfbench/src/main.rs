//! The repository benchmark: three seeded workloads driven through the
//! public API of `netfpga-projects`, `netfpga-host` and `netfpga-fabric`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <switch_64b|router_imix|fabric_leafspine> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run repeats *rounds* until `--seconds` have passed (at least
//! [`MIN_ROUNDS`]). A round is one fresh set-up plus one fixed, seeded
//! measured phase, so every round of a run must deliver the same frames
//! at the same simulated times; round 0 warms the process up and is left
//! out of the host-time figures. Every delivery is checked. The last line
//! of standard output is the result object; the line before it carries
//! the determinism signature, the run environment and any absent
//! per-layer metric with its reason. See `README.md` for the ledger.

mod fabric;
mod ledger;
mod measure;
mod router;
mod switch;

use ledger::{Metrics, Round, END_TO_END, PER_LAYER};
use measure::{median, percentile, quantile, thread_schedstat, Fnv, Tracer};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

pub const WORKLOADS: [&str; 3] = ["switch_64b", "router_imix", "fabric_leafspine"];
/// Rounds every run makes at least: a warm-up round and two measured ones
/// (in a traced run, one traced and one untraced).
const MIN_ROUNDS: usize = 3;
/// `frames_per_s` is this quantile of the per-slice rates. The hosts this
/// runs on alternate between undisturbed phases and phases in which
/// neighbours on the shared caches or memory slow the simulator by a third
/// or more; when a run mixes both, the median of its slice rates tracks
/// how long the slow phases last and the 90th percentile tracks the
/// program (see `README.md`).
const RATE_QUANTILE: f64 = 0.9;
/// Shards the fabric workload runs on, clamped to the host's cores.
const FABRIC_SHARDS: usize = 2;

/// What a run keeps of each round (round 0 is also kept whole).
#[derive(Default)]
struct Kept {
    setups: Vec<f64>,
    round_fps: Vec<f64>,
    /// Slice rates of the measured rounds: untraced, traced.
    rates: [Vec<f64>; 2],
    /// Per-layer values of the traced rounds.
    traced_layers: Vec<Metrics>,
    attempted: u64,
    failed: u64,
    /// Worker-thread schedstat: (on-CPU ns, runnable-wait ns).
    worker: (u64, u64),
    problems: Vec<String>,
}

impl Kept {
    fn absorb(&mut self, n: usize, r: &Round) {
        self.setups.push(r.setup.as_secs_f64());
        self.round_fps.push(fps(r));
        self.attempted += r.attempted;
        self.failed += r.failed;
        self.worker.0 += r.worker_sched.0;
        self.worker.1 += r.worker_sched.1;
        self.problems
            .extend(r.problems.iter().map(|p| format!("round {n}: {p}")));
    }
}

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|&&w| w == value);
                workload =
                    Some(*w.ok_or(format!("unknown workload {value}; one of {WORKLOADS:?}"))?);
            }
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// One round of `workload` at full size.
pub fn run_round(workload: &str, seed: u64, shards: usize, tracer: &Tracer) -> Round {
    match workload {
        "switch_64b" => switch::round(seed, switch::FULL, tracer),
        "router_imix" => router::round(seed, router::FULL, tracer),
        "fabric_leafspine" => fabric::round(seed, fabric::FULL, shards, tracer),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Simulated end-to-end metrics of one round: (p50 ns, p99.9 ns, Gb/s).
/// Takes the round's latency sample, which is large, and frees it.
fn sim_metrics(r: &mut Round) -> (f64, f64, f64) {
    let mut lat = std::mem::take(&mut r.latency_ps);
    if lat.is_empty() {
        return (0.0, 0.0, r.goodput_gbps);
    }
    let p50 = percentile(&mut lat, 0.5) as f64 / 1e3;
    let p999 = percentile(&mut lat, 0.999) as f64 / 1e3;
    (p50, p999, r.goodput_gbps)
}

/// The determinism signature: every delivery of round 0 and its
/// per-layer counts.
fn signature(r: &Round) -> u64 {
    let mut h = Fnv(r.deliveries);
    for (name, v) in &r.counts {
        h.bytes(name.as_bytes());
        h.word(v.to_bits());
    }
    h.0
}

fn fps(r: &Round) -> f64 {
    let host: Duration = r.samples.iter().map(|&(_, dt)| dt).sum();
    r.frames as f64 / host.as_secs_f64().max(1e-12)
}

fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn metrics_json(values: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = values
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*v),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let cores = measure::cores();
    let shards = if args.workload == "fabric_leafspine" {
        FABRIC_SHARDS.min(cores)
    } else {
        1
    };
    let (traced_tracer, plain_tracer) = (Tracer::new(true), Tracer::new(false));

    let started = Instant::now();
    let deadline = started + Duration::from_secs(args.seconds);
    let sched_from = thread_schedstat();
    // In a traced run, odd rounds are traced and even rounds are not, so
    // the two interleave and their difference is the tracing overhead.
    let is_traced = |i: usize| args.trace && i % 2 == 1;
    // Round 0 is kept whole. Of the others the run keeps only what it
    // reports, so its own bookkeeping stays out of the peak RSS.
    let mut first: Option<(Round, (f64, f64, f64))> = None;
    let mut kept = Kept::default();
    let mut spans = Vec::new();
    let mut n = 0;
    while n < MIN_ROUNDS || Instant::now() < deadline {
        let traced = is_traced(n);
        let tracer = if traced {
            &traced_tracer
        } else {
            &plain_tracer
        };
        let mut r = run_round(args.workload, args.seed, shards, tracer);
        let sim = sim_metrics(&mut r);
        kept.absorb(n, &r);
        match &first {
            None => first = Some((r, sim)),
            Some((r0, sim0)) => {
                // Every round must reproduce round 0 exactly.
                if r.deliveries != r0.deliveries || sim != *sim0 {
                    kept.problems
                        .push(format!("round {n}: deliveries differ from round 0"));
                }
                for (name, v) in &r.counts {
                    if let Some(v0) = r0.counts.get(name).filter(|v0| *v0 != v) {
                        kept.problems
                            .push(format!("round {n}: {name} = {v}, round 0 had {v0}"));
                    }
                }
                let rates = r.samples.iter().filter(|(frames, _)| *frames > 0);
                kept.rates[usize::from(traced)]
                    .extend(rates.map(|&(frames, dt)| frames as f64 / dt.as_secs_f64().max(1e-12)));
                if traced {
                    // The first traced round's spans are written out.
                    if spans.is_empty() {
                        spans = std::mem::take(&mut r.spans);
                    }
                    let mut layer = r.counts;
                    layer.extend(r.times);
                    kept.traced_layers.push(layer);
                }
            }
        }
        n += 1;
    }
    let sched_to = thread_schedstat();
    let (r0, (p50, p999, goodput)) = first.expect("at least one round");
    let mut problems = kept.problems;
    problems.dedup();
    let correct = kept.failed == 0 && problems.is_empty();
    let (attempted, failed) = (kept.attempted, kept.failed);

    let untraced_fps = quantile(&kept.rates[0], RATE_QUANTILE);
    let setup_s = median(&kept.setups);
    let oncpu_ns = (sched_to.0 - sched_from.0) + kept.worker.0;
    let wait_ns = (sched_to.1 - sched_from.1) + kept.worker.1;
    let wait_frac = wait_ns as f64 / (oncpu_ns + wait_ns).max(1) as f64;

    let mut env = Metrics::new();
    env.insert("env.cores", cores as f64);
    env.insert("env.shards", shards as f64);
    env.insert("env.oncpu_s", oncpu_ns as f64 * 1e-9);
    env.insert("env.wait_frac", wait_frac);

    let metrics = if args.trace {
        let traced_fps = quantile(&kept.rates[1], RATE_QUANTILE);
        env.insert("bench.trace_overhead_frac", 1.0 - traced_fps / untraced_fps);
        let mut values = Vec::new();
        for def in PER_LAYER {
            let v = if let Some(&v) = env.get(def.name) {
                v
            } else if r0.absent.contains_key(def.name) {
                0.0
            } else {
                let got: Vec<f64> = kept
                    .traced_layers
                    .iter()
                    .filter_map(|m| m.get(def.name).copied())
                    .collect();
                if got.is_empty() {
                    problems.push(format!("per-layer metric {} was not measured", def.name));
                    0.0
                } else {
                    median(&got)
                }
            };
            values.push((def.name, def.unit, v));
        }
        metrics_json(&values)
    } else {
        let values = [
            untraced_fps,
            setup_s,
            measure::peak_rss_mib(),
            p50,
            p999,
            goodput,
        ];
        let v: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(d, v)| (d.name, d.unit, v))
            .collect();
        metrics_json(&v)
    };

    if args.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let parts: Vec<(usize, &str, &[measure::Span])> = spans
            .iter()
            .map(|(part, s)| (1, *part, s.as_slice()))
            .collect();
        if let Err(e) = measure::write_spans(&path, &parts) {
            eprintln!("perfbench: writing {}: {e}", path.display());
        }
    }

    let mut detail = String::new();
    let _ = write!(
        detail,
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"rounds\": {}, \"signature\": \"{:016x}\"",
        json_str(args.workload),
        args.seed,
        u8::from(args.trace),
        n,
        signature(&r0)
    );
    let _ = write!(
        detail,
        ", \"env\": {{\"cores\": {cores}, \"shards\": {shards}, \"oncpu_s\": {}, \"wait_s\": {}, \"wait_frac\": {}}}",
        json_num(oncpu_ns as f64 * 1e-9),
        json_num(wait_ns as f64 * 1e-9),
        json_num(wait_frac)
    );
    let list = |v: Vec<f64>| v.into_iter().map(json_num).collect::<Vec<_>>().join(", ");
    let _ = write!(
        detail,
        ", \"round_frames_per_s\": [{}]",
        list(kept.round_fps)
    );
    let rates = &kept.rates[0];
    let quantiles = [
        ("p25", 0.25),
        ("p50", 0.5),
        ("p75", 0.75),
        ("p90", 0.9),
        ("p99", 0.99),
    ]
    .map(|(name, q)| format!("\"{name}\": {}", json_num(quantile(rates, q))));
    let _ = write!(
        detail,
        ", \"slice_rate_quantiles\": {{{}}}",
        quantiles.join(", ")
    );
    let _ = write!(detail, ", \"round_setup_s\": [{}]", list(kept.setups));
    let _ = write!(
        detail,
        ", \"counts\": {{{}}}",
        r0.counts
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_num(*v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = write!(
        detail,
        ", \"absent\": {{{}}}",
        r0.absent
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = write!(
        detail,
        ", \"problems\": [{}]}}",
        problems
            .iter()
            .take(20)
            .map(|p| json_str(p))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("{detail}");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    const SWITCH: switch::Size = switch::Size {
        frames_per_port: 3000,
        slice: 256,
    };
    const ROUTER: router::Size = router::Size { bursts: 80 };
    const FABRIC: fabric::Size = fabric::Size {
        frames_per_host: 400,
    };

    fn small_round(workload: &str, seed: u64, shards: usize, tracer: &Tracer) -> Round {
        match workload {
            "switch_64b" => switch::round(seed, SWITCH, tracer),
            "router_imix" => router::round(seed, ROUTER, tracer),
            _ => fabric::round(seed, FABRIC, shards, tracer),
        }
    }

    /// Everything a seed pins: the signature and the simulated metrics.
    fn outcome(mut r: Round) -> (u64, (f64, f64, f64)) {
        assert_eq!(r.failed, 0, "{:?}", r.problems);
        assert!(r.problems.is_empty(), "{:?}", r.problems);
        (signature(&r), sim_metrics(&mut r))
    }

    #[test]
    fn same_seed_gives_same_signature_and_simulated_metrics() {
        let tracer = Tracer::new(false);
        for w in WORKLOADS {
            let a = outcome(small_round(w, 7, 2, &tracer));
            let b = outcome(small_round(w, 7, 2, &tracer));
            assert_eq!(a, b, "{w}");
        }
    }

    #[test]
    fn router_seeds_give_different_signatures() {
        let tracer = Tracer::new(false);
        let a = outcome(small_round("router_imix", 1, 1, &tracer));
        let b = outcome(small_round("router_imix", 2, 1, &tracer));
        assert_ne!(a.0, b.0);
    }

    #[test]
    fn fabric_matches_on_one_and_two_shards() {
        let tracer = Tracer::new(false);
        let one = outcome(small_round("fabric_leafspine", 3, 1, &tracer));
        let two = outcome(small_round("fabric_leafspine", 3, 2, &tracer));
        assert_eq!(one, two);
    }

    #[test]
    fn traced_round_yields_every_per_layer_metric() {
        let tracer = Tracer::new(true);
        for w in WORKLOADS {
            let r = small_round(w, 5, 2, &tracer);
            assert!(!r.spans.is_empty(), "{w}: spans kept");
            let from_main = [
                "bench.trace_overhead_frac",
                "env.cores",
                "env.shards",
                "env.oncpu_s",
                "env.wait_frac",
            ];
            for def in PER_LAYER.iter().filter(|d| !from_main.contains(&d.name)) {
                let n = [
                    r.counts.contains_key(def.name),
                    r.times.contains_key(def.name),
                    r.absent.contains_key(def.name),
                ];
                assert_eq!(
                    n.iter().filter(|&&x| x).count(),
                    1,
                    "{w}: {} reported exactly once",
                    def.name
                );
            }
        }
    }

    #[test]
    fn benchmark_json_and_readme_describe_the_ledger() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
        let json = std::fs::read_to_string(root.join("../BENCHMARK.json")).expect("BENCHMARK.json");
        let readme = std::fs::read_to_string(root.join("README.md")).expect("README.md");
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        let entries = json.matches("\"better\": ").count();
        assert_eq!(
            entries,
            END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists the ledger and nothing else"
        );
        for def in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": ",
                def.name, def.unit
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
            let listed = readme.contains(&format!("`{}`", def.name))
                || (def.name.ends_with(".self_ns_per_frame")
                    && readme.contains("`<layer>.self_ns_per_frame`"));
            assert!(listed, "README lacks {}", def.name);
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args = |s: &str| parse_args(s.split_whitespace().map(String::from));
        assert!(args("--workload router_imix --seed 3 --seconds 2 --trace 1").is_ok());
        assert!(args("--workload nope").is_err());
        assert!(args("--workload switch_64b --trace 2").is_err());
        assert!(args("--seed 3").is_err());
        assert!(args("--workload switch_64b --seed").is_err());
    }
}
