//! The structured diagnostics model: stable codes, severities, node
//! anchors, and pretty / JSON rendering.
//!
//! Every finding the analyzer can produce has a *stable* code of the form
//! `GDCM0NN`. The leading digit of `NN` identifies the pass, so codes
//! double as a map of the analyzer:
//!
//! | Range | Pass |
//! |---|---|
//! | `GDCM001`–`GDCM009` | graph well-formedness |
//! | `GDCM010`–`GDCM019` | independent shape re-inference |
//! | `GDCM020`–`GDCM029` | cost-accounting audit |
//! | `GDCM030`–`GDCM039` | search-space conformance |
//! | `GDCM040`–`GDCM049` | encoding invariants |
//! | `GDCM100`–`GDCM119` | trained-ensemble verification (`gdcm-audit`) |
//! | `GDCM120`–`GDCM129` | dataset lints (`gdcm-audit`) |
//! | `GDCM130`–`GDCM139` | fold-contamination checks (`gdcm-audit`) |
//! | `GDCM140`–`GDCM159` | flatcheck — frozen-model translation validation (`gdcm-audit`) |
//! | `GDCM160`–`GDCM179` | wirecheck — wire-protocol conformance verification (`gdcm-wirecheck`) |
//!
//! The `GDCM1xx` family is emitted by the sibling `gdcm-audit` and
//! `gdcm-wirecheck` crates, which verify everything *downstream* of the
//! IR (trained ensembles, feature matrices, fold plans, the serving
//! wire protocol) but share this diagnostics model so every code family
//! renders into one report format.
//!
//! Codes are append-only: a released code never changes meaning and is
//! never reused, so CI logs and suppression lists stay valid across
//! versions.

use gdcm_dnn::NodeId;
use serde::{Deserialize, Serialize};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Severity {
    /// Suspicious but representable; the network is usable with care.
    Warning,
    /// The network would corrupt training data or crash a consumer.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. See the module docs for the numbering scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DiagCode {
    // --- pass 1: graph well-formedness -------------------------------
    /// An edge references the node itself or a later node — the only way
    /// this topologically-ordered IR can encode a cycle.
    NonTopologicalEdge,
    /// An edge (or the output anchor) references a node id outside the
    /// graph.
    UnknownNodeRef,
    /// A node is unreachable from the output — its cost and encoding
    /// contributions are fiction.
    DeadNode,
    /// A node has the wrong number of inputs for its operator.
    BadArity,
    /// The graph has no input placeholder, or an input placeholder with
    /// incoming edges.
    MissingInput,
    /// An operator's hyper-parameters are invalid in isolation.
    InvalidParameters,
    /// A node's stored id disagrees with its position in the node list.
    MisnumberedNode,
    // --- pass 2: shape re-inference ----------------------------------
    /// The independently re-inferred output shape disagrees with the
    /// shape stored on the node.
    ShapeMismatch,
    /// Independent shape re-inference failed outright (e.g. a kernel
    /// larger than its padded input).
    ShapeInferenceFailed,
    // --- pass 3: cost-accounting audit -------------------------------
    /// Recomputed MAC count diverges from the stored accounting.
    MacDivergence,
    /// Recomputed FLOP count diverges from the stored accounting.
    FlopDivergence,
    /// Recomputed parameter count diverges from the stored accounting.
    ParamDivergence,
    /// Recomputed byte traffic diverges from the stored accounting.
    ByteDivergence,
    /// Aggregate totals disagree with the sum of per-node costs.
    TotalsDivergence,
    // --- pass 4: search-space conformance ----------------------------
    /// Input resolution or channel count outside the search space.
    ResolutionOutOfSpace,
    /// Kernel size outside the search space.
    KernelOutOfSpace,
    /// Stride outside the search space.
    StrideOutOfSpace,
    /// Channel count above the space's worst-case width.
    ChannelOutOfSpace,
    /// Operator configuration the space cannot produce (grouped
    /// convolution, concat, non-default padding, …).
    OpOutOfSpace,
    /// Activation function outside the search space.
    ActivationOutOfSpace,
    /// Total MACs above the configured budget.
    MacBudgetExceeded,
    // --- pass 5: encoding invariants ---------------------------------
    /// Encoded vector length disagrees with the encoder's declared width.
    EncodingWidthMismatch,
    /// Encoding the same network twice produced different vectors.
    EncodingNondeterministic,
    /// The encoding contains NaN or infinite features.
    EncodingNonFinite,
    /// The encoder failed to represent an operator the IR can express.
    EncodingNotTotal,
    // --- audit pass 1: trained-ensemble verification ------------------
    /// A split node references a feature index at or beyond the model's
    /// declared feature count.
    EnsembleFeatureOutOfBounds,
    /// A split threshold is NaN or infinite.
    NonFiniteSplitThreshold,
    /// A leaf weight is NaN or infinite.
    NonFiniteLeafWeight,
    /// A split's child index points outside the tree's node arena.
    TreeChildOutOfBounds,
    /// Walking the tree from its root revisits a node — the arena encodes
    /// a cycle or a shared subtree, neither of which `grow` can produce.
    TreeCycle,
    /// A node in the arena is unreachable from the tree root.
    UnreachableTreeNode,
    /// A root-to-leaf path is deeper than `GbdtParams::max_depth`.
    TreeDepthExceeded,
    /// A tree has more reachable leaves than `2^max_depth` allows.
    TreeLeafBudgetExceeded,
    /// A split threshold is not one of the bin edges of the
    /// `BinnedMatrix` the ensemble was trained on (or splits a constant
    /// feature, which has no bin edges at all).
    ThresholdOffGrid,
    /// The ensemble's base score is NaN or infinite.
    NonFiniteBaseScore,
    /// The independent reference predictor (naive recursive walk)
    /// disagrees bit-for-bit with the fast batched predict path.
    ReferencePredictMismatch,
    /// Feature importance re-derived from reachable tree structure
    /// disagrees with the model's reported `feature_importance`.
    ImportanceMismatch,
    /// The ensemble contains no trees — every prediction is the base
    /// score.
    EmptyEnsemble,
    // --- audit pass 2: dataset lints ----------------------------------
    /// A feature cell is NaN or infinite.
    NonFiniteFeature,
    /// A label is NaN or infinite.
    NonFiniteLabel,
    /// A feature column takes a single value across every row.
    ConstantFeatureColumn,
    /// Two feature columns are bitwise identical across every row.
    DuplicateFeatureColumn,
    /// Two rows have bitwise-identical feature vectors.
    DuplicateNetworkRow,
    /// A label is a robust-z outlier relative to the label distribution.
    LabelOutlier,
    /// A column's exact constancy disagrees with the fitted scaler's
    /// zero-variance freeze mask.
    ScalerFrozenMismatch,
    // --- audit pass 3: fold-contamination checks ----------------------
    /// A signature network appears among the train/eval networks of a
    /// fold — signature rows must never leak into evaluation.
    SignatureLeak,
    /// A device appears in both the train and test sides of a fold.
    DeviceLeak,
    /// A fold has an empty train or test side.
    EmptyFold,
    /// A fold references a device index outside the population.
    FoldIndexOutOfRange,
    /// A leave-device-out plan does not hold each device out exactly
    /// once.
    IncompleteCoverage,
    // --- audit pass 4: flatcheck (frozen-model translation validation) -
    /// The frozen SoA arena's shape is inconsistent: tree offsets not
    /// monotone from 0, parallel arrays of unequal length, or a tree
    /// count that disagrees with the source ensemble.
    FlatArenaShapeMismatch,
    /// A slot's kind (split vs leaf) disagrees with its source node.
    FlatNodeKindMismatch,
    /// A split slot's feature index disagrees with its source node or
    /// exceeds the model width.
    FlatFeatureMismatch,
    /// A split slot's child offset dangles outside its tree's slot
    /// range.
    FlatChildOutOfRange,
    /// A split slot's child offsets disagree with the source node's
    /// children (e.g. swapped left/right).
    FlatChildMismatch,
    /// Walking the flat tree from its root slot revisits a slot — the
    /// SoA arrays encode a cycle or a shared subtree.
    FlatCycle,
    /// A slot inside a tree's range is unreachable from its root slot.
    FlatOrphanSlot,
    /// A leaf slot's value is not bitwise equal to the source leaf
    /// weight.
    FlatLeafValueMismatch,
    /// The frozen cut grid is not bitwise equal to the deterministic
    /// rebuild of the training `BinnedMatrix` grid.
    FlatGridMismatch,
    /// A frozen feature's cut points are not strictly ascending, which
    /// voids the quantization soundness argument.
    FlatGridNotAscending,
    /// A split slot's `u8` bin does not map back to its source
    /// threshold (`cuts[bin]` differs bitwise), so the integer compare
    /// cannot reproduce the `f32` compare.
    FlatThresholdOffGrid,
    /// Symbolic quantization check failed: some representable bin edge
    /// decides differently under `code <= bin` than under
    /// `value <= threshold`.
    FlatQuantizationUnsound,
    /// A root-to-leaf path's feature intervals are contradictory — the
    /// leaf is unreachable for every input, which `fit` cannot produce.
    FlatDeadPath,
    /// Flat and recursive traversal select different leaves for some
    /// cell of the bin-grid partition.
    FlatPathDivergence,
    /// Accumulated ensemble outputs (base + leaf sums, or forest means)
    /// disagree bitwise between the frozen and recursive predictors.
    FlatAccumulationMismatch,
    /// Frozen model metadata (base score, feature width, tree count)
    /// disagrees with the source model.
    FlatMetadataMismatch,
    // --- wirecheck pass 1: codec equivalence ---------------------------
    /// The hand-rolled fast request encoder produced bytes that differ
    /// from the generic content-tree encoder for the same request.
    WireFastEncodeDivergence,
    /// The fast request decoder disagrees with the generic decoder —
    /// different acceptance, or a different decoded value.
    WireFastDecodeDivergence,
    /// A wire scalar (varint boundary, zigzag extreme, f64 bit
    /// pattern) failed its bit-exact encode/decode round trip.
    WireScalarRoundTripMismatch,
    /// A decoder accepted an over-long or non-canonical LEB128 varint
    /// instead of rejecting it with a stable error.
    WireOverlongVarintAccepted,
    // --- wirecheck pass 2: frame-grammar soundness ---------------------
    /// A content tree failed the encode → decode → equality round trip.
    WireContentRoundTripMismatch,
    /// Canonically encoded bytes did not re-encode to themselves after
    /// decoding.
    WireReencodeMismatch,
    /// A strict prefix of a valid encoding decoded successfully instead
    /// of erroring.
    WireTruncationAccepted,
    /// A hostile declared length or nesting depth was not rejected
    /// before allocation.
    WireHostileLengthAccepted,
    /// Frame header fields (payload length, request id) did not
    /// round-trip through encode/decode.
    WireFrameHeaderMismatch,
    /// A payload above the protocol cap was framed or accepted instead
    /// of being refused.
    WireOversizedFrameUnrefused,
    // --- wirecheck pass 3: connection state-machine model check --------
    /// An accepted request frame was never answered.
    FsmResponseMissing,
    /// A response carried the wrong request id, or a request was
    /// answered more than once.
    FsmResponseIdMismatch,
    /// An in-band error response terminated unrelated pipelined
    /// requests on the same connection.
    FsmErrorKilledPipeline,
    /// A connection buffer grew past its documented cap.
    FsmBufferOverCap,
    /// A connection drain failed to terminate within the sweep budget.
    FsmDrainStuck,
    /// The preamble gate mishandled a connection opening: it served or
    /// answered a non-binary-v1 opening, or refused a valid preamble.
    FsmSniffMismatch,
    // --- wirecheck pass 4: structure-aware frame fuzzer ----------------
    /// The fast and generic decoders disagreed on a mutated payload.
    FuzzDecodeDivergence,
    /// The server answered a corrupted frame with an error code outside
    /// the stable `protocol::codes` set.
    FuzzErrorCodeUnstable,
    /// The connection-survival policy was violated: a well-framed bad
    /// payload killed the connection, intact framing was abandoned, or
    /// the request path panicked.
    FuzzConnectionPolicyViolation,
    /// A server response frame failed to decode as a `Response`.
    FuzzResponseUndecodable,
}

impl DiagCode {
    /// Every code, in numeric order — the source of truth for the
    /// reference table in the README.
    pub const ALL: [DiagCode; 86] = [
        DiagCode::NonTopologicalEdge,
        DiagCode::UnknownNodeRef,
        DiagCode::DeadNode,
        DiagCode::BadArity,
        DiagCode::MissingInput,
        DiagCode::InvalidParameters,
        DiagCode::MisnumberedNode,
        DiagCode::ShapeMismatch,
        DiagCode::ShapeInferenceFailed,
        DiagCode::MacDivergence,
        DiagCode::FlopDivergence,
        DiagCode::ParamDivergence,
        DiagCode::ByteDivergence,
        DiagCode::TotalsDivergence,
        DiagCode::ResolutionOutOfSpace,
        DiagCode::KernelOutOfSpace,
        DiagCode::StrideOutOfSpace,
        DiagCode::ChannelOutOfSpace,
        DiagCode::OpOutOfSpace,
        DiagCode::ActivationOutOfSpace,
        DiagCode::MacBudgetExceeded,
        DiagCode::EncodingWidthMismatch,
        DiagCode::EncodingNondeterministic,
        DiagCode::EncodingNonFinite,
        DiagCode::EncodingNotTotal,
        DiagCode::EnsembleFeatureOutOfBounds,
        DiagCode::NonFiniteSplitThreshold,
        DiagCode::NonFiniteLeafWeight,
        DiagCode::TreeChildOutOfBounds,
        DiagCode::TreeCycle,
        DiagCode::UnreachableTreeNode,
        DiagCode::TreeDepthExceeded,
        DiagCode::TreeLeafBudgetExceeded,
        DiagCode::ThresholdOffGrid,
        DiagCode::NonFiniteBaseScore,
        DiagCode::ReferencePredictMismatch,
        DiagCode::ImportanceMismatch,
        DiagCode::EmptyEnsemble,
        DiagCode::NonFiniteFeature,
        DiagCode::NonFiniteLabel,
        DiagCode::ConstantFeatureColumn,
        DiagCode::DuplicateFeatureColumn,
        DiagCode::DuplicateNetworkRow,
        DiagCode::LabelOutlier,
        DiagCode::ScalerFrozenMismatch,
        DiagCode::SignatureLeak,
        DiagCode::DeviceLeak,
        DiagCode::EmptyFold,
        DiagCode::FoldIndexOutOfRange,
        DiagCode::IncompleteCoverage,
        DiagCode::FlatArenaShapeMismatch,
        DiagCode::FlatNodeKindMismatch,
        DiagCode::FlatFeatureMismatch,
        DiagCode::FlatChildOutOfRange,
        DiagCode::FlatChildMismatch,
        DiagCode::FlatCycle,
        DiagCode::FlatOrphanSlot,
        DiagCode::FlatLeafValueMismatch,
        DiagCode::FlatGridMismatch,
        DiagCode::FlatGridNotAscending,
        DiagCode::FlatThresholdOffGrid,
        DiagCode::FlatQuantizationUnsound,
        DiagCode::FlatDeadPath,
        DiagCode::FlatPathDivergence,
        DiagCode::FlatAccumulationMismatch,
        DiagCode::FlatMetadataMismatch,
        DiagCode::WireFastEncodeDivergence,
        DiagCode::WireFastDecodeDivergence,
        DiagCode::WireScalarRoundTripMismatch,
        DiagCode::WireOverlongVarintAccepted,
        DiagCode::WireContentRoundTripMismatch,
        DiagCode::WireReencodeMismatch,
        DiagCode::WireTruncationAccepted,
        DiagCode::WireHostileLengthAccepted,
        DiagCode::WireFrameHeaderMismatch,
        DiagCode::WireOversizedFrameUnrefused,
        DiagCode::FsmResponseMissing,
        DiagCode::FsmResponseIdMismatch,
        DiagCode::FsmErrorKilledPipeline,
        DiagCode::FsmBufferOverCap,
        DiagCode::FsmDrainStuck,
        DiagCode::FsmSniffMismatch,
        DiagCode::FuzzDecodeDivergence,
        DiagCode::FuzzErrorCodeUnstable,
        DiagCode::FuzzConnectionPolicyViolation,
        DiagCode::FuzzResponseUndecodable,
    ];

    /// The numeric part of the stable code.
    pub fn number(self) -> u16 {
        match self {
            DiagCode::NonTopologicalEdge => 1,
            DiagCode::UnknownNodeRef => 2,
            DiagCode::DeadNode => 3,
            DiagCode::BadArity => 4,
            DiagCode::MissingInput => 5,
            DiagCode::InvalidParameters => 6,
            DiagCode::MisnumberedNode => 7,
            DiagCode::ShapeMismatch => 10,
            DiagCode::ShapeInferenceFailed => 11,
            DiagCode::MacDivergence => 20,
            DiagCode::FlopDivergence => 21,
            DiagCode::ParamDivergence => 22,
            DiagCode::ByteDivergence => 23,
            DiagCode::TotalsDivergence => 24,
            DiagCode::ResolutionOutOfSpace => 30,
            DiagCode::KernelOutOfSpace => 31,
            DiagCode::StrideOutOfSpace => 32,
            DiagCode::ChannelOutOfSpace => 33,
            DiagCode::OpOutOfSpace => 34,
            DiagCode::ActivationOutOfSpace => 35,
            DiagCode::MacBudgetExceeded => 36,
            DiagCode::EncodingWidthMismatch => 40,
            DiagCode::EncodingNondeterministic => 41,
            DiagCode::EncodingNonFinite => 42,
            DiagCode::EncodingNotTotal => 43,
            DiagCode::EnsembleFeatureOutOfBounds => 100,
            DiagCode::NonFiniteSplitThreshold => 101,
            DiagCode::NonFiniteLeafWeight => 102,
            DiagCode::TreeChildOutOfBounds => 103,
            DiagCode::TreeCycle => 104,
            DiagCode::UnreachableTreeNode => 105,
            DiagCode::TreeDepthExceeded => 106,
            DiagCode::TreeLeafBudgetExceeded => 107,
            DiagCode::ThresholdOffGrid => 108,
            DiagCode::NonFiniteBaseScore => 109,
            DiagCode::ReferencePredictMismatch => 110,
            DiagCode::ImportanceMismatch => 111,
            DiagCode::EmptyEnsemble => 112,
            DiagCode::NonFiniteFeature => 120,
            DiagCode::NonFiniteLabel => 121,
            DiagCode::ConstantFeatureColumn => 122,
            DiagCode::DuplicateFeatureColumn => 123,
            DiagCode::DuplicateNetworkRow => 124,
            DiagCode::LabelOutlier => 125,
            DiagCode::ScalerFrozenMismatch => 126,
            DiagCode::SignatureLeak => 130,
            DiagCode::DeviceLeak => 131,
            DiagCode::EmptyFold => 132,
            DiagCode::FoldIndexOutOfRange => 133,
            DiagCode::IncompleteCoverage => 134,
            DiagCode::FlatArenaShapeMismatch => 140,
            DiagCode::FlatNodeKindMismatch => 141,
            DiagCode::FlatFeatureMismatch => 142,
            DiagCode::FlatChildOutOfRange => 143,
            DiagCode::FlatChildMismatch => 144,
            DiagCode::FlatCycle => 145,
            DiagCode::FlatOrphanSlot => 146,
            DiagCode::FlatLeafValueMismatch => 147,
            DiagCode::FlatGridMismatch => 148,
            DiagCode::FlatGridNotAscending => 149,
            DiagCode::FlatThresholdOffGrid => 150,
            DiagCode::FlatQuantizationUnsound => 151,
            DiagCode::FlatDeadPath => 152,
            DiagCode::FlatPathDivergence => 153,
            DiagCode::FlatAccumulationMismatch => 154,
            DiagCode::FlatMetadataMismatch => 155,
            DiagCode::WireFastEncodeDivergence => 160,
            DiagCode::WireFastDecodeDivergence => 161,
            DiagCode::WireScalarRoundTripMismatch => 162,
            DiagCode::WireOverlongVarintAccepted => 163,
            DiagCode::WireContentRoundTripMismatch => 164,
            DiagCode::WireReencodeMismatch => 165,
            DiagCode::WireTruncationAccepted => 166,
            DiagCode::WireHostileLengthAccepted => 167,
            DiagCode::WireFrameHeaderMismatch => 168,
            DiagCode::WireOversizedFrameUnrefused => 169,
            DiagCode::FsmResponseMissing => 170,
            DiagCode::FsmResponseIdMismatch => 171,
            DiagCode::FsmErrorKilledPipeline => 172,
            DiagCode::FsmBufferOverCap => 173,
            DiagCode::FsmDrainStuck => 174,
            DiagCode::FsmSniffMismatch => 175,
            DiagCode::FuzzDecodeDivergence => 176,
            DiagCode::FuzzErrorCodeUnstable => 177,
            DiagCode::FuzzConnectionPolicyViolation => 178,
            DiagCode::FuzzResponseUndecodable => 179,
        }
    }

    /// The stable `GDCM0NN` identifier.
    pub fn code(self) -> String {
        format!("GDCM{:03}", self.number())
    }

    /// The analyzer or audit pass that can emit this code.
    pub fn pass(self) -> Pass {
        match self.number() {
            0..=9 => Pass::WellFormedness,
            10..=19 => Pass::Shapes,
            20..=29 => Pass::Costs,
            30..=39 => Pass::Conformance,
            40..=49 => Pass::Encoding,
            100..=119 => Pass::Ensemble,
            120..=129 => Pass::Dataset,
            130..=139 => Pass::Folds,
            140..=159 => Pass::Flatcheck,
            _ => Pass::Wirecheck,
        }
    }

    /// Default severity of this code.
    pub fn severity(self) -> Severity {
        match self {
            DiagCode::MacBudgetExceeded
            | DiagCode::EmptyEnsemble
            | DiagCode::ConstantFeatureColumn
            | DiagCode::DuplicateFeatureColumn
            | DiagCode::DuplicateNetworkRow
            | DiagCode::LabelOutlier => Severity::Warning,
            _ => Severity::Error,
        }
    }

    /// One-line description for the reference table.
    pub fn description(self) -> &'static str {
        match self {
            DiagCode::NonTopologicalEdge => {
                "edge references the node itself or a later node (cycle)"
            }
            DiagCode::UnknownNodeRef => "edge or output anchor references a node outside the graph",
            DiagCode::DeadNode => "node unreachable from the network output",
            DiagCode::BadArity => "wrong number of inputs for the operator",
            DiagCode::MissingInput => "no input placeholder, or input placeholder with inputs",
            DiagCode::InvalidParameters => "operator hyper-parameters invalid in isolation",
            DiagCode::MisnumberedNode => "node id disagrees with its position in the node list",
            DiagCode::ShapeMismatch => "re-inferred output shape disagrees with the stored shape",
            DiagCode::ShapeInferenceFailed => "independent shape re-inference failed",
            DiagCode::MacDivergence => "recomputed MACs diverge from stored accounting",
            DiagCode::FlopDivergence => "recomputed FLOPs diverge from stored accounting",
            DiagCode::ParamDivergence => "recomputed parameters diverge from stored accounting",
            DiagCode::ByteDivergence => "recomputed byte traffic diverges from stored accounting",
            DiagCode::TotalsDivergence => "aggregate totals disagree with per-node sums",
            DiagCode::ResolutionOutOfSpace => "input resolution/channels outside the search space",
            DiagCode::KernelOutOfSpace => "kernel size outside the search space",
            DiagCode::StrideOutOfSpace => "stride outside the search space",
            DiagCode::ChannelOutOfSpace => "channel count above the space's worst-case width",
            DiagCode::OpOutOfSpace => "operator configuration the space cannot produce",
            DiagCode::ActivationOutOfSpace => "activation outside the search space",
            DiagCode::MacBudgetExceeded => "total MACs above the configured budget",
            DiagCode::EncodingWidthMismatch => "encoded vector length differs from declared width",
            DiagCode::EncodingNondeterministic => "encoding the same network twice differed",
            DiagCode::EncodingNonFinite => "encoding contains NaN or infinite features",
            DiagCode::EncodingNotTotal => "encoder cannot represent an expressible operator",
            DiagCode::EnsembleFeatureOutOfBounds => {
                "split references a feature index beyond the model's feature count"
            }
            DiagCode::NonFiniteSplitThreshold => "split threshold is NaN or infinite",
            DiagCode::NonFiniteLeafWeight => "leaf weight is NaN or infinite",
            DiagCode::TreeChildOutOfBounds => "split child index outside the tree's node arena",
            DiagCode::TreeCycle => "tree walk revisits a node (cycle or shared subtree)",
            DiagCode::UnreachableTreeNode => "arena node unreachable from the tree root",
            DiagCode::TreeDepthExceeded => "root-to-leaf path deeper than GbdtParams::max_depth",
            DiagCode::TreeLeafBudgetExceeded => "more reachable leaves than 2^max_depth allows",
            DiagCode::ThresholdOffGrid => {
                "split threshold is not a bin edge of the training BinnedMatrix"
            }
            DiagCode::NonFiniteBaseScore => "ensemble base score is NaN or infinite",
            DiagCode::ReferencePredictMismatch => {
                "reference predictor disagrees bit-for-bit with batched predict"
            }
            DiagCode::ImportanceMismatch => {
                "re-derived feature importance disagrees with the model's"
            }
            DiagCode::EmptyEnsemble => "ensemble contains no trees",
            DiagCode::NonFiniteFeature => "feature cell is NaN or infinite",
            DiagCode::NonFiniteLabel => "label is NaN or infinite",
            DiagCode::ConstantFeatureColumn => "feature column constant across every row",
            DiagCode::DuplicateFeatureColumn => "two feature columns bitwise identical",
            DiagCode::DuplicateNetworkRow => "two rows have bitwise-identical feature vectors",
            DiagCode::LabelOutlier => "label is a robust-z outlier",
            DiagCode::ScalerFrozenMismatch => {
                "column constancy disagrees with the scaler's zero-variance freeze mask"
            }
            DiagCode::SignatureLeak => "signature network leaked into a fold's train/eval set",
            DiagCode::DeviceLeak => "device appears in both train and test sides of a fold",
            DiagCode::EmptyFold => "fold has an empty train or test side",
            DiagCode::FoldIndexOutOfRange => "fold references a device outside the population",
            DiagCode::IncompleteCoverage => {
                "leave-device-out plan does not hold each device out exactly once"
            }
            DiagCode::FlatArenaShapeMismatch => {
                "frozen SoA arena shape inconsistent (offsets, array lengths, or tree count)"
            }
            DiagCode::FlatNodeKindMismatch => {
                "slot kind (split vs leaf) disagrees with source node"
            }
            DiagCode::FlatFeatureMismatch => {
                "split slot's feature disagrees with its source node or exceeds model width"
            }
            DiagCode::FlatChildOutOfRange => "split slot's child offset dangles outside its tree",
            DiagCode::FlatChildMismatch => {
                "split slot's children disagree with the source node (e.g. swapped)"
            }
            DiagCode::FlatCycle => "flat tree walk revisits a slot (cycle or shared subtree)",
            DiagCode::FlatOrphanSlot => "slot inside a tree's range unreachable from its root",
            DiagCode::FlatLeafValueMismatch => "leaf slot value differs bitwise from source weight",
            DiagCode::FlatGridMismatch => {
                "frozen cut grid differs bitwise from the rebuilt training grid"
            }
            DiagCode::FlatGridNotAscending => "frozen cut points are not strictly ascending",
            DiagCode::FlatThresholdOffGrid => {
                "split slot's bin does not map back to its source threshold bitwise"
            }
            DiagCode::FlatQuantizationUnsound => {
                "a representable bin edge decides differently under code<=bin than value<=threshold"
            }
            DiagCode::FlatDeadPath => "root-to-leaf path has contradictory feature intervals",
            DiagCode::FlatPathDivergence => {
                "flat and recursive traversal select different leaves for a bin-grid cell"
            }
            DiagCode::FlatAccumulationMismatch => {
                "frozen and recursive ensemble outputs disagree bitwise"
            }
            DiagCode::FlatMetadataMismatch => {
                "frozen metadata (base score, width, tree count) disagrees with source model"
            }
            DiagCode::WireFastEncodeDivergence => {
                "fast request encoder bytes differ from the generic encoder"
            }
            DiagCode::WireFastDecodeDivergence => {
                "fast request decoder disagrees with the generic decoder"
            }
            DiagCode::WireScalarRoundTripMismatch => {
                "wire scalar failed bit-exact encode/decode round trip"
            }
            DiagCode::WireOverlongVarintAccepted => {
                "decoder accepted an over-long or non-canonical LEB128 varint"
            }
            DiagCode::WireContentRoundTripMismatch => {
                "content tree failed encode\u{2192}decode\u{2192}equality round trip"
            }
            DiagCode::WireReencodeMismatch => "canonical bytes do not re-encode to themselves",
            DiagCode::WireTruncationAccepted => {
                "a strict prefix of a valid encoding decoded successfully"
            }
            DiagCode::WireHostileLengthAccepted => {
                "hostile declared length/depth not rejected before allocation"
            }
            DiagCode::WireFrameHeaderMismatch => "frame header fields do not round-trip",
            DiagCode::WireOversizedFrameUnrefused => {
                "payload above MAX_PAYLOAD was framed or accepted"
            }
            DiagCode::FsmResponseMissing => "accepted request frame was never answered",
            DiagCode::FsmResponseIdMismatch => {
                "response id mismatch, or a request answered more than once"
            }
            DiagCode::FsmErrorKilledPipeline => {
                "in-band error terminated unrelated pipelined requests"
            }
            DiagCode::FsmBufferOverCap => "connection buffer exceeded its documented cap",
            DiagCode::FsmDrainStuck => {
                "connection drain failed to terminate within the sweep budget"
            }
            DiagCode::FsmSniffMismatch => "preamble gate mishandled a connection opening",
            DiagCode::FuzzDecodeDivergence => {
                "fast and generic decoders disagreed on a mutated payload"
            }
            DiagCode::FuzzErrorCodeUnstable => {
                "server answered a corrupted frame with an unknown error code"
            }
            DiagCode::FuzzConnectionPolicyViolation => {
                "connection survival policy violated (or the server panicked)"
            }
            DiagCode::FuzzResponseUndecodable => {
                "server response frame failed to decode as a Response"
            }
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GDCM{:03}", self.number())
    }
}

/// The five analyzer passes, the four `gdcm-audit` passes, and the
/// `gdcm-wirecheck` conformance pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Pass {
    /// Pass 1 — graph well-formedness.
    WellFormedness,
    /// Pass 2 — independent shape re-inference.
    Shapes,
    /// Pass 3 — cost-accounting audit.
    Costs,
    /// Pass 4 — search-space conformance.
    Conformance,
    /// Pass 5 — encoding invariants.
    Encoding,
    /// Audit pass 1 — trained-ensemble verification (`gdcm-audit`).
    Ensemble,
    /// Audit pass 2 — dataset lints (`gdcm-audit`).
    Dataset,
    /// Audit pass 3 — fold-contamination checks (`gdcm-audit`).
    Folds,
    /// Audit pass 4 — flatcheck: frozen-model translation validation
    /// (`gdcm-audit`).
    Flatcheck,
    /// Wirecheck — wire-protocol conformance verification
    /// (`gdcm-wirecheck`).
    Wirecheck,
}

impl fmt::Display for Pass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Pass::WellFormedness => "well-formedness",
            Pass::Shapes => "shapes",
            Pass::Costs => "costs",
            Pass::Conformance => "conformance",
            Pass::Encoding => "encoding",
            Pass::Ensemble => "ensemble",
            Pass::Dataset => "dataset",
            Pass::Folds => "folds",
            Pass::Flatcheck => "flatcheck",
            Pass::Wirecheck => "wirecheck",
        };
        write!(f, "{name}")
    }
}

/// One finding, anchored to a subject (a network, model, dataset, or
/// fold plan) and usually to an index within it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Diagnostic {
    /// Stable code.
    pub code: DiagCode,
    /// Severity (defaults to [`DiagCode::severity`]).
    pub severity: Severity,
    /// Name of the offending subject. Analyzer codes anchor to a
    /// network; audit codes anchor to a model, dataset, or fold-plan
    /// label. (Field name kept for serialized-report stability.)
    pub network: String,
    /// Offending index within the subject, when the finding anchors to
    /// one: a graph node for analyzer codes; a tree, column, row, or
    /// fold index for audit codes.
    pub node: Option<usize>,
    /// Human-readable detail.
    pub message: String,
}

impl Diagnostic {
    /// Creates a network-level diagnostic with the code's default
    /// severity.
    pub fn network_level(code: DiagCode, network: &str, message: impl Into<String>) -> Self {
        Self {
            code,
            severity: code.severity(),
            network: network.to_string(),
            node: None,
            message: message.into(),
        }
    }

    /// Creates a node-anchored diagnostic with the code's default
    /// severity.
    pub fn at_node(
        code: DiagCode,
        network: &str,
        node: NodeId,
        message: impl Into<String>,
    ) -> Self {
        Self {
            node: Some(node.index()),
            ..Self::network_level(code, network, message)
        }
    }

    /// Creates a diagnostic anchored to an arbitrary index within its
    /// subject — a tree, column, row, or fold — with the code's default
    /// severity. The audit-family counterpart of [`Diagnostic::at_node`],
    /// which insists on a graph [`NodeId`].
    pub fn at_index(
        code: DiagCode,
        subject: &str,
        index: usize,
        message: impl Into<String>,
    ) -> Self {
        Self {
            node: Some(index),
            ..Self::network_level(code, subject, message)
        }
    }

    /// The stable `GDCM0NN` identifier of this diagnostic.
    pub fn stable_code(&self) -> String {
        self.code.code()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}] {}", self.severity, self.code, self.network)?;
        if let Some(n) = self.node {
            write!(f, " @ n{n}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// All diagnostics for one analyzed network.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// Name of the analyzed network.
    pub network: String,
    /// Findings, in pass order.
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report for a network.
    pub fn new(network: impl Into<String>) -> Self {
        Self {
            network: network.into(),
            diagnostics: Vec::new(),
        }
    }

    /// Whether no diagnostics were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Number of error-severity diagnostics.
    pub fn error_count(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Whether a specific code was emitted.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Emits every finding as a structured `gdcm-obs` event and bumps the
    /// `analyze/diagnostics` counter, so analyzer output lands in the
    /// same sinks as the rest of the pipeline.
    pub fn emit(&self) {
        for d in &self.diagnostics {
            gdcm_obs::event(
                "diag",
                &d.stable_code(),
                &[
                    (
                        "severity",
                        gdcm_obs::FieldValue::from(d.severity.to_string()),
                    ),
                    ("network", gdcm_obs::FieldValue::from(d.network.clone())),
                    (
                        "node",
                        gdcm_obs::FieldValue::from(d.node.unwrap_or(usize::MAX)),
                    ),
                    ("message", gdcm_obs::FieldValue::from(d.message.clone())),
                ],
            );
        }
        gdcm_obs::counter("analyze/diagnostics").add(self.diagnostics.len() as u64);
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            writeln!(f, "{}: clean", self.network)
        } else {
            for d in &self.diagnostics {
                writeln!(f, "{d}")?;
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_unique_sorted_and_stable() {
        let numbers: Vec<u16> = DiagCode::ALL.iter().map(|c| c.number()).collect();
        let mut sorted = numbers.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(numbers, sorted, "codes must be unique and in order");
        assert_eq!(DiagCode::NonTopologicalEdge.code(), "GDCM001");
        assert_eq!(DiagCode::ShapeMismatch.code(), "GDCM010");
        assert_eq!(DiagCode::EncodingNotTotal.code(), "GDCM043");
        assert_eq!(DiagCode::EnsembleFeatureOutOfBounds.code(), "GDCM100");
        assert_eq!(DiagCode::NonFiniteFeature.code(), "GDCM120");
        assert_eq!(DiagCode::IncompleteCoverage.code(), "GDCM134");
        assert_eq!(DiagCode::FlatArenaShapeMismatch.code(), "GDCM140");
        assert_eq!(DiagCode::FlatMetadataMismatch.code(), "GDCM155");
        assert_eq!(DiagCode::WireFastEncodeDivergence.code(), "GDCM160");
        assert_eq!(DiagCode::FsmResponseMissing.code(), "GDCM170");
        assert_eq!(DiagCode::FuzzResponseUndecodable.code(), "GDCM179");
    }

    #[test]
    fn code_ranges_map_to_passes() {
        for code in DiagCode::ALL {
            let expected = match code.number() {
                0..=9 => Pass::WellFormedness,
                10..=19 => Pass::Shapes,
                20..=29 => Pass::Costs,
                30..=39 => Pass::Conformance,
                40..=49 => Pass::Encoding,
                100..=119 => Pass::Ensemble,
                120..=129 => Pass::Dataset,
                130..=139 => Pass::Folds,
                140..=159 => Pass::Flatcheck,
                160..=179 => Pass::Wirecheck,
                n => unreachable!("unmapped code number {n}"),
            };
            assert_eq!(code.pass(), expected, "{code}");
        }
    }

    #[test]
    fn audit_diagnostic_anchors_to_index() {
        let d = Diagnostic::at_index(
            DiagCode::TreeChildOutOfBounds,
            "gbdt/RS",
            3,
            "split child 99 outside arena of 7 nodes",
        );
        assert_eq!(d.node, Some(3));
        assert_eq!(d.severity, Severity::Error);
        let pretty = d.to_string();
        assert!(pretty.contains("error[GDCM103] gbdt/RS @ n3"), "{pretty}");
    }

    #[test]
    fn diagnostic_renders_pretty_and_json() {
        let d = Diagnostic::at_node(
            DiagCode::ShapeMismatch,
            "rand_007",
            NodeId::from_index(17),
            "stored 14x14x96, re-inferred 7x7x96",
        );
        let pretty = d.to_string();
        assert!(pretty.contains("error[GDCM010] rand_007 @ n17"), "{pretty}");
        let json = serde_json::to_string(&d).expect("diagnostics serialize");
        assert!(json.contains("\"ShapeMismatch\""), "{json}");
        let back: Diagnostic = serde_json::from_str(&json).expect("diagnostics deserialize");
        assert_eq!(back, d);
    }

    #[test]
    fn report_counts_and_lookup() {
        let mut r = Report::new("x");
        assert!(r.is_clean());
        r.diagnostics.push(Diagnostic::network_level(
            DiagCode::MacBudgetExceeded,
            "x",
            "1.2 GMACs",
        ));
        r.diagnostics.push(Diagnostic::network_level(
            DiagCode::DeadNode,
            "x",
            "n3 unreachable",
        ));
        assert!(!r.is_clean());
        assert_eq!(r.error_count(), 1); // budget is a warning
        assert!(r.has(DiagCode::DeadNode));
        assert!(!r.has(DiagCode::BadArity));
    }
}
