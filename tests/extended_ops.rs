//! Integration coverage for the extended operator set (`Pad`, `ReduceMean`)
//! through ONNX import, simplification, and execution — the shapes real
//! exporters emit.

use orpheus::Engine;
use orpheus_graph::{passes::PassManager, AttrValue, Attributes, Graph, Node, OpKind, ValueInfo};
use orpheus_ops::conv::{Conv2d, Conv2dParams, ConvAlgorithm};
use orpheus_tensor::{allclose, Tensor};
use orpheus_threads::ThreadPool;

/// The graph shape PyTorch exports for "same" padding:
/// `Pad → Conv(pads=0) → Relu → ReduceMean(axes=[2,3]) → Flatten → Gemm`.
fn exporter_style_graph() -> Graph {
    let mut g = Graph::new("exporter-style");
    g.add_input(ValueInfo::new("x", &[1, 3, 8, 8]));
    g.add_initializer(
        "w",
        Tensor::from_fn(&[8, 3, 3, 3], |i| ((i % 11) as f32 - 5.0) * 0.05),
    );
    g.add_initializer(
        "fc_w",
        Tensor::from_fn(&[4, 8], |i| ((i % 7) as f32 - 3.0) * 0.1),
    );
    g.add_node(
        Node::new("pad", OpKind::Pad, &["x"], &["xp"]).with_attrs(
            Attributes::new()
                .with("pads", AttrValue::Ints(vec![0, 0, 1, 1, 0, 0, 1, 1]))
                .with("value", AttrValue::Float(0.0)),
        ),
    );
    g.add_node(
        Node::new("conv", OpKind::Conv, &["xp", "w"], &["c"]).with_attrs(
            Attributes::new()
                .with("kernel_shape", AttrValue::Ints(vec![3, 3]))
                .with("pads", AttrValue::Ints(vec![0, 0, 0, 0])),
        ),
    );
    g.add_node(Node::new("act", OpKind::Relu, &["c"], &["a"]));
    g.add_node(
        Node::new("gap", OpKind::ReduceMean, &["a"], &["m"]).with_attrs(
            Attributes::new()
                .with("axes", AttrValue::Ints(vec![2, 3]))
                .with("keepdims", AttrValue::Int(1)),
        ),
    );
    g.add_node(Node::new("flat", OpKind::Flatten, &["m"], &["f"]));
    g.add_node(Node::new("fc", OpKind::Gemm, &["f", "fc_w"], &["y"]));
    g.add_output("y");
    g
}

#[test]
fn pad_fold_absorbs_exporter_padding() {
    let mut g = exporter_style_graph();
    PassManager::standard().run_to_fixpoint(&mut g).unwrap();
    assert!(
        !g.nodes().iter().any(|n| n.op == OpKind::Pad),
        "Pad should be folded into the conv:\n{}",
        g.render()
    );
    let conv = g.nodes().iter().find(|n| n.op == OpKind::Conv).unwrap();
    assert_eq!(conv.attrs.ints_or("pads", &[]), vec![1, 1, 1, 1]);
}

#[test]
fn folded_and_unfolded_graphs_agree() {
    let g = exporter_style_graph();
    let input = Tensor::from_fn(&[1, 3, 8, 8], |i| ((i * 13 % 31) as f32 / 31.0) - 0.4);
    let plain = Engine::builder()
        .threads(1)
        .simplification(false)
        .build()
        .unwrap()
        .load(g.clone())
        .unwrap();
    let simplified = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .load(g)
        .unwrap();
    assert!(simplified.num_layers() < plain.num_layers());
    let a = plain.run(&input).unwrap();
    let b = simplified.run(&input).unwrap();
    let r = allclose(&b, &a, 1e-4, 1e-5);
    assert!(r.ok, "pad folding changed results: {r:?}");
}

#[test]
fn survives_onnx_round_trip() {
    let g = exporter_style_graph();
    let bytes = orpheus_onnx::export_model(&g).unwrap();
    let engine = Engine::builder().threads(1).build().unwrap();
    let input = Tensor::from_fn(&[1, 3, 8, 8], |i| (i % 9) as f32 * 0.1);
    let via_onnx = engine.load_onnx(&bytes).unwrap().run(&input).unwrap();
    let direct = engine.load(g).unwrap().run(&input).unwrap();
    let r = allclose(&via_onnx, &direct, 1e-4, 1e-5);
    assert!(r.ok, "round trip changed results: {r:?}");
}

#[test]
fn manual_pad_conv_equals_padded_conv() {
    // pad_constant_into + unpadded conv == padded conv, at the operator level.
    let params_padded = Conv2dParams::square(2, 4, 3).with_padding(1, 1);
    let params_plain = Conv2dParams::square(2, 4, 3);
    let weight = Tensor::from_fn(&params_padded.weight_dims(), |i| {
        ((i % 5) as f32 - 2.0) * 0.1
    });
    let input = Tensor::from_fn(&[1, 2, 6, 6], |i| ((i * 7 % 13) as f32 - 6.0) * 0.2);
    let pool = ThreadPool::single();

    let direct = Conv2d::new(params_padded, weight.clone(), None, ConvAlgorithm::Direct)
        .unwrap()
        .run(&input, &pool)
        .unwrap();
    let mut padded_input = Tensor::zeros(&[1, 2, 8, 8]);
    orpheus_ops::pad::pad_constant_into(
        &input,
        &[0, 0, 1, 1],
        &[0, 0, 1, 1],
        0.0,
        &mut padded_input,
    )
    .unwrap();
    let via_pad = Conv2d::new(params_plain, weight, None, ConvAlgorithm::Direct)
        .unwrap()
        .run(&padded_input, &pool)
        .unwrap();
    assert_eq!(direct, via_pad);
}

#[test]
fn reduce_mean_without_keepdims_feeds_dense() {
    // keepdims=0 produces [n, c] directly, skipping the Flatten.
    let mut g = Graph::new("rm");
    g.add_input(ValueInfo::new("x", &[1, 6, 4, 4]));
    g.add_initializer("fc_w", Tensor::ones(&[2, 6]));
    g.add_node(
        Node::new("gap", OpKind::ReduceMean, &["x"], &["m"]).with_attrs(
            Attributes::new()
                .with("axes", AttrValue::Ints(vec![2, 3]))
                .with("keepdims", AttrValue::Int(0)),
        ),
    );
    g.add_node(Node::new("fc", OpKind::Gemm, &["m", "fc_w"], &["y"]));
    g.add_output("y");
    let out = Engine::builder()
        .threads(1)
        .build()
        .unwrap()
        .load(g)
        .unwrap()
        .run(&Tensor::ones(&[1, 6, 4, 4]))
        .unwrap();
    assert_eq!(out.dims(), &[1, 2]);
    assert_eq!(out.as_slice(), &[6.0, 6.0]);
}
