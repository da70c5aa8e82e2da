//! Tests of the benchmark itself: deterministic inputs, metric names that
//! match `BENCHMARK.json`, a gate that catches a doctored stream, and
//! count metrics that repeat exactly across runs.

use std::process::Command;

use lrd_serve::generate;
use lrd_trace::json::{parse, Json};
use perfbench::gate;
use perfbench::metrics::{end_to_end, per_layer, Spec};
use perfbench::serving;
use perfbench::setup::Variants;
use perfbench::sweep;
use perfbench::workload::{derive_seed, eval_options, Stream, Workload};

/// Whether `name` follows the metric-name grammar: 1–64 characters of
/// ASCII letters, digits, `_`, `.` and `-`, starting with a letter or
/// digit.
fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// Whether `unit` follows the unit grammar: 1–16 characters of ASCII
/// letters, digits, `_`, `/`, `%`, `.` and `-`.
fn valid_unit(unit: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok)
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    parse(&text).expect("BENCHMARK.json parses")
}

fn str_of<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks string {key:?}"))
}

/// `(name, unit, better)` of every entry of a `BENCHMARK.json` section.
fn declared(doc: &Json, section: &str) -> Vec<(String, String, String)> {
    let entries = doc
        .get(section)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"));
    entries
        .iter()
        .map(|e| {
            let field = |k| str_of(e, k).to_string();
            (field("name"), field("unit"), field("better"))
        })
        .collect()
}

fn triples(specs: Vec<Spec>) -> Vec<(String, String, String)> {
    specs
        .into_iter()
        .map(|s| (s.name, s.unit.to_string(), s.better.to_string()))
        .collect()
}

#[test]
fn traces_are_deterministic_per_seed() {
    for w in Workload::ALL {
        let a = generate(&w.traffic(7, 0));
        assert_eq!(a, generate(&w.traffic(7, 0)), "{}", w.name());
        assert_ne!(a, generate(&w.traffic(8, 0)), "{}", w.name());
        assert_ne!(a, generate(&w.traffic(7, 1)), "{}", w.name());
        let cfg = w.traffic(7, 0);
        assert!(a.iter().all(|r| {
            (cfg.prompt_len.0..=cfg.prompt_len.1).contains(&r.prompt.len())
                && (cfg.gen_len.0..=cfg.gen_len.1).contains(&r.gen_len)
        }));
    }
}

#[test]
fn samples_are_deterministic_per_seed() {
    let world = sweep::world();
    let (a, b, c) = (eval_options(7), eval_options(7), eval_options(8));
    let mut differs = false;
    for bench in lrd_eval::tasks::registry() {
        let sa = bench.samples(&world, a.n_samples, a.seed);
        assert_eq!(sa, bench.samples(&world, b.n_samples, b.seed));
        differs |= sa != bench.samples(&world, c.n_samples, c.seed);
    }
    assert!(differs, "seeds 7 and 8 drew identical samples");
}

#[test]
fn emitted_names_match_benchmark_json() {
    let doc = benchmark_json();
    assert_eq!(declared(&doc, "end_to_end"), triples(end_to_end()));
    assert_eq!(declared(&doc, "per_layer"), triples(per_layer()));
    for e in doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .expect("end_to_end")
    {
        let bound = e.get("bound").and_then(Json::as_num).expect("a bound");
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
    }
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| str_of(w, "name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
    let mut names: Vec<String> = end_to_end()
        .into_iter()
        .chain(per_layer())
        .map(|s| s.name)
        .collect();
    let total = names.len();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), total, "a metric name is used twice");
    for s in end_to_end().iter().chain(&per_layer()) {
        assert!(valid_name(&s.name), "bad name {}", s.name);
        assert!(valid_unit(s.unit), "bad unit {} of {}", s.unit, s.name);
        assert!(s.better == "higher" || s.better == "lower");
    }
    assert!(per_layer().len() <= 128);
}

#[test]
fn a_doctored_stream_fails_the_gate() {
    let variants = Variants::build().expect("set-up");
    let requests: Vec<_> = generate(&Workload::Decode.traffic(3, 0))
        .into_iter()
        .take(12)
        .collect();
    let picked = gate::subset(derive_seed(3, Stream::Subset), requests.len(), 4);
    let cfg = serving::config(requests.len());
    let honest = serving::replay(&variants.f96, &requests, "f96");
    assert_eq!(gate::incomplete(&honest), 0);
    assert_eq!(
        gate::sequential_mismatches(&variants.f96, &requests, &picked, &cfg, &honest),
        0
    );

    let mut doctored = honest.clone();
    let victim = doctored
        .completions
        .iter_mut()
        .find(|c| c.id == requests[picked[0]].id)
        .expect("picked session completed");
    victim.tokens[0] ^= 1;
    assert_eq!(
        gate::sequential_mismatches(&variants.f96, &requests, &picked, &cfg, &doctored),
        1
    );
    assert_eq!(
        gate::stream_mismatches(&honest.completions, &doctored.completions),
        1
    );
}

#[test]
fn a_doctored_sweep_fails_the_gate() {
    let variants = Variants::build().expect("set-up");
    let world = sweep::world();
    let benches = lrd_eval::tasks::registry();
    let mut opts = eval_options(3);
    opts.n_samples = 2;
    let rep = sweep::run(&variants.dense, &world, &opts, &benches);
    let n = benches.len();
    assert_eq!(
        gate::sweep_failures(&rep.points, rep.samples_scored, n, 2, Some(&rep.points)),
        0
    );
    let mut doctored = rep.points.clone();
    doctored[3].results[0].1.correct += 1;
    assert_eq!(
        gate::sweep_failures(&doctored, rep.samples_scored, n, 2, Some(&rep.points)),
        1
    );
    assert_eq!(
        gate::sweep_failures(&rep.points, rep.samples_scored + 1, n, 2, None),
        1
    );
}

/// Runs the benchmark binary and returns its parsed result line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let last = stdout.lines().last().expect("a result line");
    let doc = parse(last).expect("result line is JSON");
    assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
    assert_eq!(doc.get("failed").and_then(Json::as_num), Some(0.0));
    doc
}

fn metric_names(doc: &Json) -> Vec<String> {
    doc.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(k, _)| k.clone())
        .collect()
}

fn value(doc: &Json, name: &str) -> f64 {
    doc.get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_num)
        .unwrap_or_else(|| panic!("no value for {name}"))
}

/// Per-layer metrics that are counts of work, not times.
const COUNTS: [&str; 11] = [
    "serve.steps_per_token.",
    "serve.mean_batch.",
    "serve.failed_share.",
    "tensor.gemm_calls_per_token.",
    "tensor.gemm_flops_per_token.",
    "tensor.bytes_packed_per_token.",
    "tensor.bytes_packed_per_sample",
    "tensor.svd_jacobi_sweeps",
    "core.cache_hit_rate",
    "core.points_failed",
    "core.retries",
];

#[test]
fn runs_emit_the_declared_names_and_counts_repeat() {
    let base = ["--workload", "prefill", "--seed", "5"];
    let untraced = run(&[&base[..], &["--seconds", "1", "--trace", "0"]].concat());
    let e2e: Vec<String> = end_to_end().into_iter().map(|s| s.name).collect();
    assert_eq!(metric_names(&untraced), e2e);

    let traced = [&base[..], &["--seconds", "1", "--trace", "1"]].concat();
    let (a, b) = (run(&traced), run(&traced));
    let layers: Vec<String> = per_layer().into_iter().map(|s| s.name).collect();
    assert_eq!(metric_names(&a), layers);
    let counts: Vec<&String> = layers
        .iter()
        .filter(|n| COUNTS.iter().any(|c| n.starts_with(c)))
        .collect();
    assert_eq!(counts.len(), 17);
    for name in counts {
        assert_eq!(
            value(&a, name).to_bits(),
            value(&b, name).to_bits(),
            "{name}"
        );
    }
    assert_eq!(value(&a, "core.points_failed"), 0.0);
    assert!(value(&a, "serve.failed_share.dense") == 0.0);
}
