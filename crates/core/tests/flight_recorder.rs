//! Post-mortem visibility: the graceful-degradation paths must leave
//! flight-recorder entries, with or without tracing enabled.
//!
//! The flight recorder (PR 6) exists so that an operator looking at a failed
//! or silently-degraded run can ask "what happened just before?" without
//! having armed a trace in advance. These tests drive the PR 2 fault paths —
//! `selection.fallback` rescues and unrecoverable faults — through a
//! fault-injected network and assert the ring holds the story.

use orpheus::Engine;
use orpheus_models::{build_model, ModelKind};
use orpheus_observe as observe;
use orpheus_tensor::Tensor;

#[test]
fn fallback_rescue_leaves_a_flight_recorder_entry() {
    // Tracing stays OFF: the flight recorder must be armed regardless.
    assert!(!observe::enabled());

    let network = Engine::builder()
        // TinyCnn's optimized convs all contain "pack"; breaking them forces
        // the Direct reference fallback on every conv step.
        .fault_injection("pack")
        .build()
        .unwrap()
        .load(build_model(ModelKind::TinyCnn))
        .unwrap();
    let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 3) % 7) as f32 * 0.1);
    network.run(&input).unwrap();

    let events = observe::flight_snapshot();
    let fallbacks: Vec<_> = events
        .iter()
        .filter(|e| e.category == "selection" && e.label == "fallback")
        .collect();
    assert!(
        !fallbacks.is_empty(),
        "selection.fallback left no flight-recorder entry; ring: {}",
        observe::flight_render(&events)
    );
    // The entry names the rescued layer and the rescuing implementation.
    assert!(
        fallbacks.iter().any(|e| e.detail.contains("rescued by")),
        "fallback entries carry no rescue detail: {fallbacks:?}"
    );
    // Fault injection itself was stamped at load time.
    assert!(
        events
            .iter()
            .any(|e| e.category == "engine" && e.label == "fault.injected"),
        "fault injection left no flight-recorder entry"
    );

    // The session can dump the same ring for post-mortem reading.
    let dump = network.session().dump_flight_recorder();
    assert!(dump.contains("selection.fallback"), "dump:\n{dump}");
}

#[test]
fn load_stamps_the_gemm_isa() {
    // Every load records which GEMM ISA its plans execute on, so a flight
    // dump from the field always answers "was that run SIMD or scalar?".
    let network = Engine::builder()
        .build()
        .unwrap()
        .load(build_model(ModelKind::TinyCnn))
        .unwrap();
    let events = observe::flight_snapshot();
    let isa_entries: Vec<_> = events
        .iter()
        .filter(|e| e.category == "engine" && e.label == "gemm.isa")
        .collect();
    assert!(
        !isa_entries.is_empty(),
        "load left no gemm.isa flight entry; ring: {}",
        observe::flight_render(&events)
    );
    let expected = orpheus_gemm::dispatch_name();
    assert!(
        isa_entries.iter().any(|e| e.detail.contains(expected)),
        "gemm.isa entries name the wrong ISA (want {expected}): {isa_entries:?}"
    );
    assert_eq!(network.plan_summary().gemm_isa, expected);

    // A force-scalar engine on a SIMD host stamps the forced variant.
    let forced = Engine::builder()
        .force_scalar(true)
        .build()
        .unwrap()
        .load(build_model(ModelKind::TinyCnn))
        .unwrap();
    let want = if orpheus_gemm::simd_available() {
        "scalar (forced)"
    } else {
        "scalar"
    };
    assert_eq!(forced.plan_summary().gemm_isa, want);
}

#[test]
fn unrecoverable_fault_leaves_error_entries() {
    // Pool layers have no reference twin, so the injected fault is terminal.
    let network = Engine::builder()
        .fault_injection("max")
        .build()
        .unwrap()
        .load(build_model(ModelKind::LeNet5))
        .unwrap();
    let err = network.run(&Tensor::ones(&[1, 1, 28, 28])).unwrap_err();
    assert!(err.to_string().contains("injected fault"));

    let events = observe::flight_snapshot();
    assert!(
        events
            .iter()
            .any(|e| e.category == "selection" && e.label == "fault.unrecoverable"),
        "unrecoverable fault left no flight-recorder entry; ring: {}",
        observe::flight_render(&events)
    );
    assert!(
        events.iter().any(|e| e.category == "session"
            && e.label == "run.error"
            && e.detail.contains("injected fault")),
        "session error left no flight-recorder entry; ring: {}",
        observe::flight_render(&events)
    );
}
