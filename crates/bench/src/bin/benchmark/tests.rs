use super::*;

/// A traced run must be the untraced run plus timing: same completion
/// digest and the same driver counters, on every workload.
fn assert_transparent(workload: Workload) {
    let (inputs, _) = workloads::setup(workload, Size::Smoke, DEFAULT_SEED);
    let plain = workloads::run(inputs, None);
    let (inputs, _) = workloads::setup(workload, Size::Smoke, DEFAULT_SEED);
    let traced = workloads::run(inputs, Some(Instant::now()));
    let name = workload.name();
    assert_eq!(plain.digest, traced.digest, "{name}: digest");
    assert_eq!(plain.completed, plain.offered, "{name}: incomplete run");
    assert_eq!(
        traced.completed, traced.offered,
        "{name}: incomplete traced run"
    );
    let counters = |o: &Outcome| {
        let s = &o.stats;
        (
            s.delta_fill_hits,
            s.delta_fill_fallbacks,
            s.pods_recomputed,
            s.horizon_skips,
            s.alloc_batches,
        )
    };
    assert_eq!(counters(&plain), counters(&traced), "{name}: counters");
    let layers = traced.layers.expect("the traced run records layers");
    assert!(
        plain.layers.is_none(),
        "{name}: untraced run recorded layers"
    );
    assert_eq!(
        layers.allocs.len(),
        traced.stats.allocations,
        "{name}: one span per allocation"
    );
    let service = matches!(
        workload,
        Workload::ServiceSteady | Workload::ServiceOverload
    );
    assert_eq!(layers.feed.is_some(), service, "{name}: feed spans");
}

#[test]
fn decorators_are_transparent_on_pod_burst() {
    assert_transparent(Workload::PodBurst);
}

#[test]
fn decorators_are_transparent_on_crosspod_churn() {
    assert_transparent(Workload::CrosspodChurn);
}

#[test]
fn decorators_are_transparent_on_echelon_dag() {
    assert_transparent(Workload::EchelonDag);
}

#[test]
fn decorators_are_transparent_on_service_steady() {
    assert_transparent(Workload::ServiceSteady);
}

#[test]
fn decorators_are_transparent_on_service_overload() {
    assert_transparent(Workload::ServiceOverload);
}

#[test]
fn same_seed_same_inputs_other_seed_other_inputs() {
    let digest = |seed| {
        let (inputs, _) = workloads::setup(Workload::CrosspodChurn, Size::Smoke, seed);
        workloads::run(inputs, None).digest
    };
    assert_eq!(digest(7), digest(7));
    assert_ne!(digest(7), digest(8));
}

#[test]
fn every_workload_and_size_has_a_committed_digest() {
    for w in Workload::ALL {
        for size in [Size::Full, Size::Smoke] {
            assert!(
                expected_digest(w, size).is_some(),
                "no digest for {} {}",
                w.name(),
                size.name()
            );
        }
    }
}

#[test]
fn nearest_rank_percentile() {
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(stats::percentile(&v, 0.0), 1.0);
    assert_eq!(stats::percentile(&v, 0.5), 5.0);
    assert_eq!(stats::percentile(&v, 0.9), 9.0);
    assert_eq!(stats::percentile(&v, 0.95), 10.0);
    assert_eq!(stats::percentile(&v, 1.0), 10.0);
    assert_eq!(stats::percentile(&[], 0.5), 0.0);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(stats::tail_percentile(12_800).1, "p99.9");
    // 10 000 samples: rank 9 990 leaves exactly ten beyond it.
    assert_eq!(stats::tail_percentile(10_000).1, "p99.9");
    assert_eq!(stats::tail_percentile(9_999).1, "p99");
    assert_eq!(stats::tail_percentile(250).1, "p95");
    assert_eq!(stats::tail_percentile(200).1, "p95");
    assert_eq!(stats::tail_percentile(199).1, "p90");
    assert_eq!(stats::tail_percentile(5).1, "p50");
    assert_eq!(stats::tail_percentile(0).1, "p50");
}

#[test]
fn quartiles_match_python_statistics() {
    // Reference values from Python's statistics.quantiles(v, n=4).
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[3., 1., 2.], [1.0, 2.0, 3.0]),
        (&[5., 1.], [0.0, 3.0, 6.0]),
        (&[2., 8., 4., 6.], [2.5, 5.0, 7.5]),
        (&[1., 1., 2., 3., 5., 8., 13.], [1.0, 3.0, 8.0]),
    ];
    for (v, want) in cases {
        assert_eq!(stats::quartiles(v), want, "{v:?}");
    }
    assert_eq!(stats::quartiles(&[4.0]), [4.0; 3]);
    assert_eq!(stats::median(&[2., 8., 4., 6.]), 5.0);
    assert_eq!(stats::spread(&[2., 8., 4., 6.]), 1.0);
}

#[test]
fn verdicts_respect_bound_and_spread() {
    let base = [100.0, 101.0, 99.0, 100.0, 100.5];
    let near = [100.5, 99.5, 100.0, 101.0, 99.0];
    let low = [80.0, 81.0, 79.0, 80.0, 80.5];
    let high = [120.0, 121.0, 119.0, 120.0, 120.5];
    assert_eq!(verdict(&base, &near, Higher, 0.1), Verdict::Same);
    assert_eq!(verdict(&base, &low, Higher, 0.1), Verdict::Worse);
    assert_eq!(verdict(&base, &high, Higher, 0.1), Verdict::Better);
    assert_eq!(verdict(&base, &low, Lower, 0.1), Verdict::Better);
    let noisy = [60.0, 140.0, 100.0, 70.0, 130.0];
    assert_eq!(verdict(&base, &noisy, Higher, 0.1), Verdict::Unresolved);
    // Wide spread, but every new run beats every base run.
    let wide_better = [150.0, 200.0, 250.0];
    assert_eq!(verdict(&base, &wide_better, Higher, 0.1), Verdict::Better);
    assert_eq!(verdict(&[0.0], &[0.0], Lower, 0.1), Verdict::Same);
}

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(String::from).collect()
}

#[test]
fn parses_a_single_workload_invocation() {
    let cli = parse_args(&args(
        "--workload echelon-dag --seed 42 --seconds 10 --trace 0",
    ))
    .expect("valid");
    assert_eq!(
        cli,
        Cli {
            mode: Mode::One {
                workload: Workload::EchelonDag,
                trace: false,
            },
            seed: 42,
            budget: Budget::Seconds(10.0),
            size: Size::Full,
        }
    );
    let all = parse_args(&args("--smoke")).expect("valid");
    assert_eq!(all.budget, Budget::Repeats(1));
    assert_eq!(all.size, Size::Smoke);
    assert!(matches!(all.mode, Mode::All { .. }));
    for bad in [
        "--workload nope",
        "--seed",
        "--trace 2",
        "--repeats 0",
        "--seconds -1",
        "--repeats 3 --seconds 5",
        "--compare a.json",
        "--compare a b --workload pod-burst",
        "--trace 1",
        "--workload pod-burst --out report.json",
        "--frobnicate",
    ] {
        assert!(parse_args(&args(bad)).is_err(), "accepted {bad:?}");
    }
}

#[test]
fn a_measurement_reports_every_listed_metric_in_order() {
    let m = measure(
        Workload::ServiceOverload,
        Size::Smoke,
        DEFAULT_SEED,
        Budget::Repeats(1),
        true,
    );
    assert!(m.failures.is_empty(), "{:?}", m.failures);
    let e2e: Vec<&str> = end_to_end(&m).iter().map(|e| e.name).collect();
    let listed: Vec<&str> = END_TO_END.iter().map(|d| d.name).collect();
    assert_eq!(e2e, listed);
    let traced = m.traced.as_ref().expect("traced run");
    let layers: Vec<&str> = per_layer(&m, traced).iter().map(|(n, _)| *n).collect();
    let listed: Vec<&str> = PER_LAYER.iter().map(|d| d.name).collect();
    assert_eq!(layers, listed);
}

#[test]
fn metric_lists_match_benchmark_json() {
    let spec = Json::parse(include_str!("../../../../../BENCHMARK.json")).expect("valid JSON");
    let listed = |key: &str| -> Vec<(String, String, String)> {
        spec.get(key)
            .and_then(Json::as_arr)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect()
    };
    let ours = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
        defs.iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.name().into()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), ours(&END_TO_END));
    assert_eq!(listed("per_layer"), ours(&PER_LAYER));
    let names: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workload list")
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str).map(String::from))
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().into()).collect();
    assert_eq!(names, ours);
}

#[test]
fn json_round_trips() {
    let v = Json::obj()
        .with("name", "a \"quoted\"\nline")
        .with("n", 12_800usize)
        .with("x", 0.125)
        .with("ok", true)
        .with("none", Json::Null)
        .with("values", vec![1.5, -2.0, 1e-9]);
    assert_eq!(Json::parse(&v.to_string()), Ok(v));
    assert!(Json::parse("{\"a\": 1,}").is_err());
    assert!(Json::parse("[1, 2] x").is_err());
    assert_eq!(
        Json::parse(" {\"k\" : [true, null, \"\\u00e9\"]} "),
        Ok(Json::obj().with(
            "k",
            Json::Arr(vec![Json::Bool(true), Json::Null, Json::from("é")])
        ))
    );
}
