//! The benchmark at smoke size: configs validate, every metric is
//! emitted with a unit, the gate passes, the digest is stable and the
//! traced layers add up to the traced total.

use std::collections::BTreeSet;
use std::path::Path;

use simbench::workload::{Scale, Workload};
use simbench::{RunArgs, END_TO_END, PER_LAYER};

fn args(workload: Workload) -> RunArgs {
    RunArgs {
        workload,
        seed: 7,
        seconds: 0.01,
        scale: Scale::Smoke,
    }
}

fn names(table: &[(&str, &str)]) -> BTreeSet<String> {
    table.iter().map(|(n, _)| n.to_string()).collect()
}

#[test]
fn every_workload_config_validates() {
    for w in Workload::ALL {
        assert_eq!(Workload::parse(w.name()), Some(w));
        for scale in [Scale::Full, Scale::Smoke] {
            for seed in [1, 2, 99] {
                let h = w.harness(simbench::sub_seed(seed, 0), scale);
                assert_eq!(h.validate(), Ok(()), "{} seed {seed}", w.name());
            }
        }
    }
}

#[test]
fn end_to_end_run_emits_every_metric_and_passes_the_gate() {
    let exe = Path::new(env!("CARGO_BIN_EXE_simbench"));
    for w in Workload::ALL {
        let r = simbench::measure(args(w), exe).unwrap();
        assert!(r.correct, "{}: {r:?}", w.name());
        assert_eq!(r.failed, 0);
        assert!(r.attempted > 0);
        let emitted: BTreeSet<String> = r.metrics.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(emitted, names(&END_TO_END), "{}", w.name());
        for (name, value, unit) in &r.metrics {
            assert!(!unit.is_empty(), "{name} has no unit");
            assert!(value.is_finite() && *value > 0.0, "{name} = {value}");
        }
        assert_eq!(r.get("ok_ratio"), Some(1.0), "fail ratio is 0");
        let json = r.to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": "));
        assert!(!json.contains('\n'));
    }
}

#[test]
fn telemetry_digest_is_stable_across_runs_and_moves_with_the_seed() {
    for w in Workload::ALL {
        let h = w.harness(7, Scale::Smoke);
        let a = h.run().unwrap();
        let b = h.run().unwrap();
        assert_eq!(a.digest, b.digest, "{}", w.name());
        assert_eq!(a.sim, b.sim);
        let other = w.harness(8, Scale::Smoke).run().unwrap();
        assert_ne!(
            a.digest,
            other.digest,
            "{}: seed must reach the input",
            w.name()
        );
    }
}

#[test]
fn traced_layers_add_up_to_the_traced_total() {
    for w in Workload::ALL {
        let r = simbench::trace(args(w)).unwrap();
        assert!(r.correct, "{}", w.name());
        let emitted: BTreeSet<String> = r.metrics.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(emitted, names(&PER_LAYER), "{}", w.name());
        let get = |n: &str| r.get(n).unwrap();
        let parts = get("host.ulp_crypto_s")
            + get("host.ulp_compress_s")
            + get("host.dram_accurate_s")
            + get("host.unattributed_s");
        let total = get("host.traced_total_s");
        assert!(
            (parts - total).abs() < 1e-9 * total.max(1.0),
            "{parts} vs {total}"
        );
    }
}

#[test]
fn benchmark_json_names_the_same_workloads_and_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = std::fs::read_to_string(path).unwrap();
    let quoted = |s: &str| format!("\"name\": \"{s}\"");
    for w in Workload::ALL {
        assert!(spec.contains(&quoted(w.name())), "{}", w.name());
    }
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("{}, \"unit\": \"{unit}\"", quoted(name));
        assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let listed = spec.matches("\"name\": ").count();
    assert_eq!(
        listed,
        Workload::ALL.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
