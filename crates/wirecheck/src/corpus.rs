//! The symbolic enumeration of the request grammar the passes sweep.
//!
//! The fast codec special-cases every [`Request`] variant and every
//! operator, padding, and activation the graph IR can spell, so the
//! corpus must cover each of them at least once — including raw-parts
//! graphs the builder would reject, because the codec must handle
//! anything the *type system* allows, not only validated graphs.

use gdcm_dnn::{
    Activation, Conv2dParams, DepthwiseConv2dParams, Network, Node, NodeId, Op, Padding,
    PoolParams, TensorShape,
};
use gdcm_serve::protocol::Request;

/// A structurally diverse graph exercising every operator variant,
/// every padding, and every activation, built from raw parts.
#[must_use]
pub fn kitchen_sink_network() -> Network {
    let shape = TensorShape::new(16, 16, 8);
    let ops: Vec<Op> = vec![
        Op::Input {
            shape: TensorShape::new(32, 32, 3),
        },
        Op::Conv2d(Conv2dParams {
            out_channels: 8,
            kernel: 3,
            stride: 2,
            padding: Padding::Same,
            groups: 2,
            bias: false,
        }),
        Op::Conv2d(Conv2dParams {
            padding: Padding::Explicit(3),
            ..Conv2dParams::dense(16, 5, 1)
        }),
        Op::DepthwiseConv2d(DepthwiseConv2dParams {
            kernel: 3,
            stride: 1,
            padding: Padding::Valid,
            multiplier: 2,
            bias: true,
        }),
        Op::FullyConnected {
            out_features: 100,
            bias: false,
        },
        Op::MaxPool2d(PoolParams::new(2, 2)),
        Op::AvgPool2d(PoolParams {
            kernel: 3,
            stride: 1,
            padding: Padding::Same,
        }),
        Op::GlobalAvgPool,
        Op::Add,
        Op::Multiply,
        Op::Concat,
    ];
    let ops = ops
        .into_iter()
        .chain(Activation::ALL.into_iter().map(Op::Activation));
    let nodes: Vec<Node> = ops
        .enumerate()
        .map(|(i, op)| Node {
            id: NodeId::from_index(i),
            op,
            inputs: (0..i.min(3)).map(NodeId::from_index).collect(),
            output_shape: shape,
        })
        .collect();
    let last = nodes.len() - 1;
    Network::from_raw_parts("kitchen-sink", nodes, NodeId::from_index(last))
}

/// Every request variant, with extreme field values where the wire
/// layer has edges: empty strings and sequences, non-ASCII device
/// names, signed-zero / subnormal / max-magnitude floats.
#[must_use]
pub fn all_requests() -> Vec<Request> {
    let net = kitchen_sink_network();
    vec![
        Request::Ping,
        Request::Stats,
        Request::Fit,
        Request::Shutdown,
        Request::Predict {
            device: "pixel-4".to_string(),
            network: net.clone(),
        },
        Request::Predict {
            device: String::new(),
            network: net.clone(),
        },
        Request::PredictForNewDevice {
            signature_ms: vec![1.5, -0.0, f64::MAX, f64::MIN_POSITIVE],
            network: net.clone(),
        },
        Request::OnboardDevice {
            device: "héllo-wörld".to_string(),
            signature_ms: vec![],
        },
        Request::ReEnroll {
            device: "mate-30".to_string(),
            signature_ms: vec![0.25; 7],
        },
        Request::Contribute {
            device: "pixel-4".to_string(),
            network: net,
            latency_ms: 123.456_789_012_345_67,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_covers_every_request_variant() {
        let reqs = all_requests();
        let covered = |f: fn(&Request) -> bool| reqs.iter().any(f);
        assert!(covered(|r| matches!(r, Request::Ping)));
        assert!(covered(|r| matches!(r, Request::Stats)));
        assert!(covered(|r| matches!(r, Request::Fit)));
        assert!(covered(|r| matches!(r, Request::Shutdown)));
        assert!(covered(|r| matches!(r, Request::Predict { .. })));
        assert!(covered(|r| matches!(
            r,
            Request::PredictForNewDevice { .. }
        )));
        assert!(covered(|r| matches!(r, Request::OnboardDevice { .. })));
        assert!(covered(|r| matches!(r, Request::ReEnroll { .. })));
        assert!(covered(|r| matches!(r, Request::Contribute { .. })));
    }

    #[test]
    fn kitchen_sink_covers_every_op_padding_and_activation() {
        let net = kitchen_sink_network();
        let ops: Vec<&Op> = net.nodes().iter().map(|n| &n.op).collect();
        assert!(ops.iter().any(|o| matches!(o, Op::Input { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::Conv2d(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::DepthwiseConv2d(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::FullyConnected { .. })));
        assert!(ops.iter().any(|o| matches!(o, Op::MaxPool2d(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::AvgPool2d(_))));
        assert!(ops.iter().any(|o| matches!(o, Op::GlobalAvgPool)));
        assert!(ops.iter().any(|o| matches!(o, Op::Add)));
        assert!(ops.iter().any(|o| matches!(o, Op::Multiply)));
        assert!(ops.iter().any(|o| matches!(o, Op::Concat)));
        for a in Activation::ALL {
            assert!(ops
                .iter()
                .any(|o| matches!(o, Op::Activation(x) if *x == a)));
        }
    }
}
