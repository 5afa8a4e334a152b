//! A traced session run and `Network::run_profiled` describe a network with
//! the same per-layer rows: every plan step, view moves included, in
//! execution order. Rows are keyed by layer name, so a graph whose nodes
//! share a name must not load.
//!
//! These tests have their own binary because the span recorder is
//! process-global; only one of them records.

use orpheus::{Engine, Profile};
use orpheus_models::{build_model_with_input, ModelKind};
use orpheus_observe as observe;
use orpheus_tensor::Tensor;

#[test]
fn traced_profile_rows_match_run_profiled() {
    for model in [
        ModelKind::LeNet5,
        ModelKind::ResNet18,
        ModelKind::MobileNetV1,
    ] {
        let hw = model.min_input_hw();
        let network = Engine::builder()
            .threads(1)
            .build()
            .unwrap()
            .load(build_model_with_input(model, hw, hw))
            .unwrap();
        let input = Tensor::full(&[1, model.input_dims()[1], hw, hw], 0.5);
        let (_, profiled) = network.run_profiled(&input).unwrap();

        let mut session = network.session();
        observe::reset();
        observe::enable();
        let run = session.run(&input).map(|_| ());
        observe::disable();
        run.unwrap();
        let traced = Profile::from_trace(&observe::take_trace());

        let key = |p: &Profile| -> Vec<(String, String, String)> {
            p.timings
                .iter()
                .map(|t| (t.name.clone(), t.op.clone(), t.implementation.clone()))
                .collect()
        };
        assert_eq!(key(&traced), key(&profiled), "{model}");
        assert_eq!(profiled.timings.len(), network.num_layers(), "{model}");
        assert!(traced.timings.iter().all(|t| t.count == 1), "{model}");
        assert!(traced.total > std::time::Duration::ZERO, "{model}");
    }
}

#[test]
fn imported_nodes_sharing_a_name_are_rejected() {
    // The span fold keys rows by layer name, which is sound only while no
    // loaded network has two steps of one name.
    let model = ModelKind::TinyCnn;
    let hw = model.min_input_hw();
    let mut graph = build_model_with_input(model, hw, hw);
    for node in graph.nodes_mut() {
        node.name = "node".into();
    }
    let bytes = orpheus_onnx::export_model(&graph).unwrap();
    let engine = Engine::builder().threads(1).build().unwrap();
    let err = engine.load_onnx(&bytes).unwrap_err().to_string();
    assert!(err.contains("ORV005"), "{err}");
}
