//! Smoke-size runs of every workload, untraced and traced: every output
//! check passes, nothing fails, and each mode prints its whole metric set.

use stackbench::{run, Args, Scale, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(workload: &str, trace: bool) -> stackbench::Outcome {
    let out = run(&Args {
        workload: workload.to_string(),
        seed: 3,
        seconds: 1.5,
        trace,
        scale: Scale::Smoke,
    })
    .expect("known workload");
    assert!(out.problems.is_empty(), "{workload}: {:?}", out.problems);
    assert_eq!(out.failed, 0, "{workload}: failed ops");
    assert!(out.attempted > 0, "{workload}: no ops");
    out
}

#[test]
fn every_workload_runs_clean_untraced() {
    for w in WORKLOADS {
        let out = smoke(w, false);
        assert_eq!(out.metrics["ok_ratio"], 1.0, "{w}: error rate above 0");
        for (name, _) in END_TO_END {
            let v = out.metrics[name];
            assert!(v.is_finite() && v > 0.0, "{w}: {name} = {v}");
        }
        let json = out.result_json(false);
        assert!(json.starts_with("{\"correct\": true,"), "{w}: {json}");
    }
}

#[test]
fn every_workload_runs_clean_traced() {
    for w in WORKLOADS {
        let out = smoke(w, true);
        let json = out.result_json(true);
        assert_eq!(json.matches("\"value\"").count(), PER_LAYER.len());
        for name in ["ladder.ftree_us", "ladder.vm_us", "trace.unattributed_pct"] {
            assert!(out.metrics.contains_key(name), "{w}: {name} missing");
        }
    }
}

#[test]
fn unknown_workload_is_an_error() {
    let args = Args {
        workload: "nope".into(),
        seed: 1,
        seconds: 1.0,
        trace: false,
        scale: Scale::Smoke,
    };
    assert!(run(&args).is_err());
}
