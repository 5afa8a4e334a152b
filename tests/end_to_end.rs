//! End-to-end integration: every paper model runs through the full
//! pipeline (zoo → ONNX export → import → simplify → lower → execute) and
//! produces a sane classification output.

use orpheus::{Engine, Personality};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_onnx::{export_model, import_model};
use orpheus_tensor::Tensor;

/// Reduced input sizes so all five models run in a debug-build test.
fn test_hw(model: ModelKind) -> usize {
    model.min_input_hw()
}

fn synthetic_image(c: usize, hw: usize) -> Tensor {
    Tensor::from_fn(&[1, c, hw, hw], |i| ((i * 37 % 97) as f32 / 97.0) - 0.5)
}

#[test]
fn all_five_paper_models_classify() {
    for model in ModelKind::FIGURE2 {
        let hw = test_hw(model);
        let graph = build_model_with_input(model, hw, hw);
        let engine = Engine::builder().threads(1).build().expect("engine");
        let network = engine
            .load(graph)
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        let out = network
            .run(&synthetic_image(3, hw))
            .unwrap_or_else(|e| panic!("{model}: {e}"));
        assert_eq!(out.dims(), &[1, model.num_classes()], "{model} output dims");
        assert!(
            out.as_slice().iter().all(|x| x.is_finite()),
            "{model} produced non-finite outputs"
        );
        // Softmax head: probabilities sum to 1.
        assert!(
            (out.sum() - 1.0).abs() < 1e-3,
            "{model} probabilities sum to {}",
            out.sum()
        );
    }
}

#[test]
fn onnx_round_trip_preserves_inference_for_every_model() {
    for model in ModelKind::FIGURE2 {
        let hw = test_hw(model);
        let graph = build_model_with_input(model, hw, hw);
        let bytes = export_model(&graph).unwrap_or_else(|e| panic!("{model}: export: {e}"));
        let reimported = import_model(&bytes).unwrap_or_else(|e| panic!("{model}: import: {e}"));
        assert_eq!(
            reimported.nodes().len(),
            graph.nodes().len(),
            "{model} nodes"
        );

        let engine = Engine::builder().threads(1).build().expect("engine");
        let input = synthetic_image(3, hw);
        let direct = engine.load(graph).unwrap().run(&input).unwrap();
        let via_onnx = engine.load(reimported).unwrap().run(&input).unwrap();
        let r = orpheus_tensor::allclose(&via_onnx, &direct, 1e-4, 1e-5);
        assert!(r.ok, "{model}: onnx round trip changed outputs: {r:?}");
    }
}

#[test]
fn every_personality_agrees_on_lenet() {
    let graph = build_model_with_input(ModelKind::LeNet5, 28, 28);
    let input = synthetic_image(1, 28);
    let reference = Engine::builder()
        .personality(Personality::Orpheus)
        .threads(1)
        .build()
        .unwrap()
        .load(graph.clone())
        .unwrap()
        .run(&input)
        .unwrap();
    for personality in [
        Personality::TvmSim,
        Personality::PytorchSim,
        Personality::DarknetSim,
    ] {
        let out = Engine::builder()
            .personality(personality)
            .threads(1)
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap()
            .run(&input)
            .unwrap();
        let r = orpheus_tensor::allclose(&out, &reference, 1e-3, 1e-4);
        assert!(r.ok, "{personality} disagrees with orpheus: {r:?}");
    }
}

#[test]
fn simplification_is_semantically_invisible_on_all_models() {
    for model in ModelKind::FIGURE2 {
        let hw = test_hw(model);
        let graph = build_model_with_input(model, hw, hw);
        let input = synthetic_image(3, hw);
        let plain = Engine::builder()
            .threads(1)
            .simplification(false)
            .build()
            .unwrap()
            .load(graph.clone())
            .unwrap();
        let simplified = Engine::builder()
            .threads(1)
            .build()
            .unwrap()
            .load(graph)
            .unwrap();
        assert!(
            simplified.num_layers() < plain.num_layers(),
            "{model}: simplification did not remove layers ({} vs {})",
            simplified.num_layers(),
            plain.num_layers()
        );
        let a = plain.run(&input).unwrap();
        let b = simplified.run(&input).unwrap();
        let r = orpheus_tensor::allclose(&b, &a, 5e-3, 1e-4);
        assert!(r.ok, "{model}: simplification changed outputs: {r:?}");
    }
}

#[test]
fn repeated_runs_are_deterministic() {
    let graph = build_model_with_input(ModelKind::TinyCnn, 8, 8);
    let network = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .load(graph)
        .unwrap();
    let input = synthetic_image(3, 8);
    let a = network.run(&input).unwrap();
    let b = network.run(&input).unwrap();
    assert_eq!(a, b, "same input must give bitwise-identical output");
}

#[test]
fn profile_accounts_for_total_time() {
    let graph = build_model_with_input(ModelKind::LeNet5, 28, 28);
    let network = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .load(graph)
        .unwrap();
    let (_, profile) = network.run_profiled(&synthetic_image(1, 28)).unwrap();
    let layer_sum: f64 = profile.timings.iter().map(|t| t.total_us / 1e6).sum();
    let total = profile.total.as_secs_f64();
    assert!(layer_sum <= total, "layer times exceed wall clock");
    assert!(
        layer_sum > total * 0.5,
        "executor overhead implausibly high: {layer_sum} vs {total}"
    );
}
