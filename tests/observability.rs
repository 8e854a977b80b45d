//! End-to-end test of the causal-tracing and flight-recorder surfaces —
//! the acceptance test of the observability PR:
//!
//! (a) one dispatched batch produces a **connected span graph**: the
//!     `router.dispatch` root, a `router.place` child, `service.group`
//!     children parented *across the rayon thread hop*, and every cold
//!     compile recorded as a `cache.compile` child of the span that
//!     caused it — and the Chrome export validates with flow arrows for
//!     the cross-thread edges;
//! (b) a daemon tick roots its own trace with its warm compiles as
//!     children, on a named thread lane;
//! (c) an injected SLO breach produces a postmortem bundle carrying the
//!     breaching rule plus all four snapshots.

use hello_sme::sme_gemm::{GemmConfig, WideningGemmConfig};
use hello_sme::sme_obs::{postmortem_bundle, ObsHub, Sentinel, SpanRecord};
use hello_sme::sme_router::{PretuneDaemon, PretuneDaemonConfig, Router};
use hello_sme::sme_runtime::GemmRequest;
use serde::json::Value;

/// A mixed batch: four distinct widening shapes plus FP32 traffic, enough
/// to fan out over multiple rayon workers and compile several kernels.
fn mixed_batch() -> Vec<GemmRequest> {
    let mut requests: Vec<GemmRequest> = (0..4)
        .map(|i| {
            GemmRequest::widening(
                WideningGemmConfig::new(32, 32, 16 * (i + 1)).expect("valid widening shape"),
                i as u64,
            )
        })
        .collect();
    requests.push(GemmRequest::fp32(GemmConfig::abt(64, 64, 32), 100));
    requests
}

fn spans_named<'a>(spans: &'a [SpanRecord], name: &str) -> Vec<&'a SpanRecord> {
    spans.iter().filter(|s| s.name == name).collect()
}

#[test]
fn dispatch_produces_a_connected_cross_thread_span_graph() {
    let router = Router::new(64);
    let hub = ObsHub::shared(4096);
    router.attach_obs(hub.clone());
    let requests = mixed_batch();
    let report = router.dispatch(&requests).expect("valid batch");

    let spans = hub.trace.snapshot();
    assert!(!spans.is_empty(), "dispatch recorded spans");
    for span in &spans {
        assert!(span.trace_id > 0, "{}: spans carry a trace id", span.name);
        assert!(span.span_id > 0, "{}: spans carry a span id", span.name);
    }

    // Exactly one batch root, and it is a root.
    let dispatch = spans_named(&spans, "router.dispatch");
    assert_eq!(dispatch.len(), 1, "one dispatch root per batch");
    let root = dispatch[0];
    assert_eq!(root.parent_id, None, "the dispatch span is a trace root");

    // Placement is a direct child of the root, in the same trace.
    let place = spans_named(&spans, "router.place");
    assert_eq!(place.len(), 1);
    assert_eq!(place[0].parent_id, Some(root.span_id));
    assert_eq!(place[0].trace_id, root.trace_id);

    // Every executed group parents to the root across the thread hop.
    let groups = spans_named(&spans, "service.group");
    assert!(!groups.is_empty(), "group execution recorded spans");
    for group in &groups {
        assert_eq!(
            group.parent_id,
            Some(root.span_id),
            "group spans parent to the batch root"
        );
        assert_eq!(group.trace_id, root.trace_id);
    }
    assert!(
        groups.iter().any(|g| g.tid != root.tid),
        "at least one group executed on a different thread than the root"
    );

    // Each group span carries the simulator-speed gauge: the simulated
    // instructions its group executed, as its report counts them, and a
    // positive rate per host microsecond.
    for group in &groups {
        let arg = |key: &str| {
            let found = group.args.iter().find(|(k, _)| k == key);
            &found.unwrap_or_else(|| panic!("group span lacks {key}")).1
        };
        let matching = report
            .batch
            .per_config
            .iter()
            .find(|c| {
                let config = c.config;
                let label = format!(
                    "{} {}x{}x{}",
                    config.dtype(),
                    config.m(),
                    config.n(),
                    config.k()
                );
                arg("config").as_str() == Some(label.as_str())
                    && arg("backend").as_str() == Some(c.backend.name())
            })
            .expect("every group span has a report entry");
        assert_eq!(
            arg("sim_insts").as_f64(),
            Some(matching.stats.instructions as f64)
        );
        let rate = arg("sim_insts_per_host_us").as_f64().expect("a number");
        assert!(rate > 0.0 && rate.is_finite(), "simulator speed {rate}");
    }

    // Cold compiles are children of the span that caused them — a group
    // execution or the placement cost probe — never orphan roots.
    let compiles = spans_named(&spans, "cache.compile");
    assert!(!compiles.is_empty(), "a cold cache compiled kernels");
    let by_id: std::collections::HashMap<u64, &SpanRecord> =
        spans.iter().map(|s| (s.span_id, s)).collect();
    for compile in &compiles {
        let parent_id = compile.parent_id.expect("compiles are never roots");
        let parent = by_id[&parent_id];
        assert!(
            parent.name == "service.group" || parent.name == "router.place",
            "compile parented under {} — expected a group or placement span",
            parent.name
        );
        assert_eq!(compile.trace_id, parent.trace_id);
    }

    // Span ids are unique across the whole graph.
    assert_eq!(by_id.len(), spans.len(), "span ids are unique");

    // The Chrome export validates and draws the cross-thread arrows.
    let json = hub.trace.to_chrome_trace();
    let exported = hello_sme::sme_obs::validate_chrome_trace(&json).expect("valid Chrome trace");
    assert_eq!(exported, spans.len());
    let doc = serde_json::from_str(&json).expect("export parses");
    let events = doc.get("traceEvents").unwrap().as_array().unwrap();
    let flow_starts = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("s"))
        .count();
    let flow_finishes = events
        .iter()
        .filter(|e| e.get("ph").unwrap().as_str() == Some("f"))
        .count();
    assert!(flow_starts > 0, "cross-thread edges draw flow arrows");
    assert_eq!(flow_starts, flow_finishes, "flow events come in pairs");
    assert!(
        events
            .iter()
            .any(|e| e.get("ph").unwrap().as_str() == Some("M")),
        "worker lanes carry thread-name metadata"
    );
}

#[test]
fn daemon_ticks_root_their_own_traces() {
    let dir = std::env::temp_dir().join(format!(
        "sme_obs_test_{}_{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");

    let router = Router::new(64);
    let hub = ObsHub::shared(4096);
    router.attach_obs(hub.clone());
    router.dispatch(&mixed_batch()).expect("valid batch");

    let mut config = PretuneDaemonConfig::in_dir(&dir);
    config.top_n = 8;
    let daemon = PretuneDaemon::new(config);
    let tick = daemon.tick(&router).expect("tick succeeds");
    assert!(tick.warmed > 0 || !tick.tuned.is_empty(), "the tick worked");

    let spans = hub.trace.snapshot();
    let ticks = spans_named(&spans, "daemon.tick");
    assert_eq!(ticks.len(), 1, "one span per tick");
    let tick_span = ticks[0];
    assert_eq!(tick_span.parent_id, None, "a tick roots its own trace");
    // The tick's warm compiles are its children (the batch already
    // compiled the preferred kernels, but warming covers the alternates).
    let warm_children: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "cache.compile" && s.parent_id == Some(tick_span.span_id))
        .collect();
    for child in &warm_children {
        assert_eq!(child.trace_id, tick_span.trace_id);
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn injected_slo_breach_yields_a_full_postmortem_bundle() {
    let router = Router::new(64);
    let hub = ObsHub::shared(4096);
    router.attach_obs(hub.clone());
    router.dispatch(&mixed_batch()).expect("valid batch");

    // An impossible contract: sub-cycle makespans, perfect hit rate on a
    // cold cache, and a daemon tick that never happened.
    let sentinel = Sentinel::serving_defaults(1.0, 1.0);
    let breaches = sentinel.evaluate(&hub.metrics);
    assert!(!breaches.is_empty(), "the strict contract must breach");
    assert!(
        breaches
            .iter()
            .any(|b| b.metric == "sme_batch_makespan_cycles"),
        "the makespan ceiling is among the breaches"
    );

    let telemetry = Value::Array(
        router
            .top_shapes(8)
            .iter()
            .map(|s| s.to_json_value())
            .collect(),
    );
    let shards = Value::Array(
        router
            .cache()
            .shard_stats()
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("hits".to_string(), Value::Number(s.hits as f64)),
                    ("misses".to_string(), Value::Number(s.misses as f64)),
                ])
            })
            .collect(),
    );
    let bundle = postmortem_bundle(&hub, &breaches[0], telemetry, shards);

    assert_eq!(bundle.get("version").unwrap().as_u64(), Some(1));
    assert_eq!(
        bundle.get("breach").unwrap().get("rule").unwrap().as_str(),
        Some(breaches[0].rule.as_str()),
        "the bundle names the breaching rule"
    );
    let trace_events = bundle
        .get("trace")
        .unwrap()
        .get("traceEvents")
        .unwrap()
        .as_array()
        .unwrap();
    assert!(!trace_events.is_empty(), "the trace snapshot is present");
    assert!(
        bundle
            .get("metrics")
            .unwrap()
            .get("counters")
            .unwrap()
            .get("sme_router_batches_total")
            .is_some(),
        "the metrics snapshot is present"
    );
    assert!(
        !bundle
            .get("telemetry_top_shapes")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "the telemetry snapshot is present"
    );
    assert!(
        !bundle
            .get("cache_shards")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty(),
        "the cache snapshot is present"
    );
}
