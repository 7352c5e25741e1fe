//! The experimental protocol of §IV-A.
//!
//! 1. Split devices 70/30 into train/test (networks are shared).
//! 2. Choose the signature set using **training-device** latencies only.
//! 3. Drop the signature networks' rows from both train and test sets
//!    (their latencies now live inside the hardware representation).
//! 4. Train XGBoost-style GBDT (lr 0.1, 100 trees, depth 3, RMSE) on
//!    `[network encoding ‖ hardware representation] → latency (ms)`.
//! 5. Report the coefficient of determination R² on the unseen devices.

use gdcm_ml::metrics::{mape, r2_score, rmse};
use gdcm_ml::{train_test_split, DenseMatrix, FrozenGbdt, GbdtParams, GbdtRegressor, Regressor};
use serde::{Deserialize, Serialize};

use crate::dataset::CostDataset;
use crate::hardware::HardwareRepr;
use crate::signature::SignatureSelector;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Fraction of devices held out for testing (paper: 0.3).
    pub test_fraction: f64,
    /// Seed of the device split.
    pub split_seed: u64,
    /// Signature-set size (paper's headline experiments: 10).
    pub signature_size: usize,
    /// Regressor hyper-parameters (paper defaults).
    pub gbdt: GbdtParams,
    /// Regress `ln(1 + ms)` instead of raw milliseconds. The paper uses
    /// raw latency; the log target is available for ablations. R² is
    /// always reported on the *raw* millisecond scale.
    pub log_target: bool,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            test_fraction: 0.3,
            split_seed: 0,
            signature_size: 10,
            gbdt: GbdtParams::default(),
            log_target: false,
        }
    }
}

/// Evaluation result of one trained cost model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Selection / representation label ("static", "RS", "MIS", "SCCS").
    pub method: String,
    /// Coefficient of determination on the test rows (raw ms scale).
    pub r2: f64,
    /// Root-mean-square error on the test rows, in ms.
    pub rmse_ms: f64,
    /// Mean absolute percentage error on the test rows.
    pub mape_pct: f64,
    /// Actual test latencies (ms) — the x-axis of the scatter plots.
    pub actual_ms: Vec<f32>,
    /// Predicted test latencies (ms) — the y-axis of the scatter plots.
    pub predicted_ms: Vec<f32>,
    /// Number of training rows.
    pub n_train_rows: usize,
    /// The signature set used (empty for the static representation).
    pub signature: Vec<usize>,
}

/// Everything one training run produces, before evaluation: the fitted
/// model plus the exact inputs it was fitted on and the experiment
/// plan around it. This is the unit the audit family verifies — the
/// sweep binary trains via [`CostModelPipeline::signature_artifacts`] /
/// [`CostModelPipeline::static_artifacts`] and hands each artifact set
/// to `gdcm-audit` instead of re-deriving the protocol internals.
#[derive(Debug, Clone)]
pub struct TrainedArtifacts {
    /// Representation / selector label ("static", "RS", "MIS", "SCCS").
    pub method: String,
    /// The fitted ensemble.
    pub model: GbdtRegressor,
    /// The compiled (frozen SoA) form of `model`, quantized onto the
    /// exact bin grid the fit trained on — the artifact serving layers
    /// run after the flatcheck pass certifies it.
    pub frozen: FrozenGbdt,
    /// The training matrix handed to `fit`.
    pub x_train: DenseMatrix,
    /// The fit target (log-transformed when `log_target` is set).
    pub y_train: Vec<f32>,
    /// Signature networks consumed by the hardware representation.
    pub signature: Vec<usize>,
    /// Networks used as training/evaluation rows (signature excluded).
    pub networks: Vec<usize>,
    /// Training-side device indices.
    pub train_devices: Vec<usize>,
    /// Held-out device indices.
    pub test_devices: Vec<usize>,
}

/// Drives the §IV protocol over a [`CostDataset`].
#[derive(Debug, Clone)]
pub struct CostModelPipeline<'a> {
    data: &'a CostDataset,
    config: PipelineConfig,
}

impl<'a> CostModelPipeline<'a> {
    /// Creates a pipeline over the dataset.
    pub fn new(data: &'a CostDataset, config: PipelineConfig) -> Self {
        Self { data, config }
    }

    /// The configured 70/30 device split.
    pub fn device_split(&self) -> (Vec<usize>, Vec<usize>) {
        train_test_split(
            self.data.n_devices(),
            self.config.test_fraction,
            self.config.split_seed,
        )
    }

    /// Runs the static-specification baseline (Fig. 8).
    pub fn run_static(&self) -> EvalReport {
        let (train, test) = self.device_split();
        self.run_with_split(&HardwareRepr::StaticSpec, &train, &test, "static")
    }

    /// Runs the signature-set representation with the given selector
    /// (Fig. 9) on the configured split.
    pub fn run_signature(&self, selector: &dyn SignatureSelector) -> EvalReport {
        let (train, test) = self.device_split();
        self.run_signature_with_split(selector, &train, &test)
    }

    /// Signature run on an explicit device split (used by the adversarial
    /// cluster experiments of Table I).
    pub fn run_signature_with_split(
        &self,
        selector: &dyn SignatureSelector,
        train_devices: &[usize],
        test_devices: &[usize],
    ) -> EvalReport {
        let signature = {
            let _span = gdcm_obs::span!("pipeline/select");
            selector.select(&self.data.db, train_devices, self.config.signature_size)
        };
        if gdcm_obs::emitting() {
            gdcm_obs::event(
                "select",
                selector.name(),
                &[(
                    "signature_size",
                    gdcm_obs::FieldValue::U64(signature.len() as u64),
                )],
            );
        }
        self.run_with_split(
            &HardwareRepr::Signature(signature),
            train_devices,
            test_devices,
            selector.name(),
        )
    }

    /// Evaluates the selector over many device splits in parallel, one
    /// fold per `gdcm-par` task, and returns the reports **in fold
    /// order**. With `GDCM_THREADS=1` this is exactly the sequential
    /// loop; at any thread count the reports are bit-identical because
    /// each fold's training run is itself deterministic and the merge
    /// preserves submission order.
    ///
    /// The selector must be `Sync` because folds run concurrently; every
    /// selector in this crate is stateless or seed-owned, so this is not
    /// a restriction in practice.
    pub fn run_signature_folds(
        &self,
        selector: &(dyn SignatureSelector + Sync),
        folds: &[(Vec<usize>, Vec<usize>)],
    ) -> Vec<EvalReport> {
        gdcm_par::pool().par_map(folds, |(train, test)| {
            self.run_signature_with_split(selector, train, test)
        })
    }

    /// Leave-one-device-out evaluation (every device becomes the holdout
    /// exactly once), folds evaluated in parallel. Report `i` corresponds
    /// to device `i` being held out.
    pub fn run_leave_device_out(
        &self,
        selector: &(dyn SignatureSelector + Sync),
    ) -> Vec<EvalReport> {
        let n = self.data.n_devices();
        let folds: Vec<(Vec<usize>, Vec<usize>)> = (0..n)
            .map(|held_out| {
                let train: Vec<usize> = (0..n).filter(|&d| d != held_out).collect();
                (train, vec![held_out])
            })
            .collect();
        self.run_signature_folds(selector, &folds)
    }

    /// Static run on an explicit device split.
    pub fn run_static_with_split(
        &self,
        train_devices: &[usize],
        test_devices: &[usize],
    ) -> EvalReport {
        self.run_with_split(
            &HardwareRepr::StaticSpec,
            train_devices,
            test_devices,
            "static",
        )
    }

    /// Trains one model on an explicit device split and returns the
    /// full artifact set (model + training inputs + experiment plan)
    /// without evaluating. If an audit gate is installed and
    /// `GDCM_AUDIT` enables it, the gate runs here — immediately after
    /// the fit, before the artifacts escape.
    pub fn train_artifacts(
        &self,
        repr: &HardwareRepr,
        train_devices: &[usize],
        test_devices: &[usize],
        method: &str,
    ) -> TrainedArtifacts {
        let signature: Vec<usize> = match repr {
            HardwareRepr::Signature(s) => s.clone(),
            HardwareRepr::StaticSpec => Vec::new(),
        };
        // Signature networks are consumed by the representation and must
        // not appear as training or evaluation rows.
        let networks: Vec<usize> = (0..self.data.n_networks())
            .filter(|n| !signature.contains(n))
            .collect();

        let (x_train, y_train) = {
            let _span = gdcm_obs::span!("pipeline/encode");
            self.build_rows(repr, train_devices, &networks)
        };

        let train_target: Vec<f32> = if self.config.log_target {
            y_train.iter().map(|v| v.ln_1p()).collect()
        } else {
            y_train
        };
        let (model, grid) = {
            let _span = gdcm_obs::span!("pipeline/train");
            GbdtRegressor::fit_with_grid(&x_train, &train_target, &self.config.gbdt)
        };
        // Compile the model for serving on the grid the fit quantized
        // against, so freezing a freshly fitted model cannot fail.
        let frozen = {
            let _span = gdcm_obs::span!("pipeline/freeze");
            FrozenGbdt::freeze(&model, &grid)
                .expect("freshly fitted model freezes on its own training grid")
        };

        crate::gate::maybe_audit(&crate::gate::AuditContext {
            method,
            model: &model,
            frozen: Some(&frozen),
            params: &self.config.gbdt,
            x_train: &x_train,
            y_train: &train_target,
            signature: &signature,
            networks: &networks,
            train_devices,
            test_devices,
            n_devices: self.data.n_devices(),
            n_networks: self.data.n_networks(),
        });

        TrainedArtifacts {
            method: method.to_string(),
            model,
            frozen,
            x_train,
            y_train: train_target,
            signature,
            networks,
            train_devices: train_devices.to_vec(),
            test_devices: test_devices.to_vec(),
        }
    }

    /// [`train_artifacts`](Self::train_artifacts) for the signature
    /// representation: selects the signature on the training devices
    /// (exactly as [`run_signature_with_split`](Self::run_signature_with_split)
    /// does), then trains.
    pub fn signature_artifacts(
        &self,
        selector: &dyn SignatureSelector,
        train_devices: &[usize],
        test_devices: &[usize],
    ) -> TrainedArtifacts {
        let signature = {
            let _span = gdcm_obs::span!("pipeline/select");
            selector.select(&self.data.db, train_devices, self.config.signature_size)
        };
        self.train_artifacts(
            &HardwareRepr::Signature(signature),
            train_devices,
            test_devices,
            selector.name(),
        )
    }

    /// [`train_artifacts`](Self::train_artifacts) for the static-spec
    /// baseline.
    pub fn static_artifacts(
        &self,
        train_devices: &[usize],
        test_devices: &[usize],
    ) -> TrainedArtifacts {
        self.train_artifacts(
            &HardwareRepr::StaticSpec,
            train_devices,
            test_devices,
            "static",
        )
    }

    fn run_with_split(
        &self,
        repr: &HardwareRepr,
        train_devices: &[usize],
        test_devices: &[usize],
        method: &str,
    ) -> EvalReport {
        let artifacts = self.train_artifacts(repr, train_devices, test_devices, method);
        let (x_test, y_test) = {
            let _span = gdcm_obs::span!("pipeline/encode");
            self.build_rows(repr, test_devices, &artifacts.networks)
        };

        let _span = gdcm_obs::span!("pipeline/eval");
        // Evaluation runs the compiled model — bit-identical to the
        // pointer-tree ensemble by construction (and certified so by
        // the flatcheck audit pass when the gate is enabled).
        let mut predicted = artifacts.frozen.predict(&x_test);
        if self.config.log_target {
            for p in &mut predicted {
                *p = p.exp_m1().max(0.0);
            }
        }

        let report = EvalReport {
            method: method.to_string(),
            r2: r2_score(&y_test, &predicted),
            rmse_ms: rmse(&y_test, &predicted),
            mape_pct: mape(&y_test, &predicted),
            actual_ms: y_test,
            predicted_ms: predicted,
            n_train_rows: artifacts.x_train.n_rows(),
            signature: artifacts.signature,
        };
        gdcm_obs::counter("pipeline/runs").incr();
        gdcm_obs::gauge(&format!("pipeline/r2/{method}")).set(report.r2);
        gdcm_obs::gauge(&format!("pipeline/rmse_ms/{method}")).set(report.rmse_ms);
        if gdcm_obs::emitting() {
            gdcm_obs::event(
                "eval",
                method,
                &[
                    ("r2", gdcm_obs::FieldValue::F64(report.r2)),
                    ("rmse_ms", gdcm_obs::FieldValue::F64(report.rmse_ms)),
                    ("mape_pct", gdcm_obs::FieldValue::F64(report.mape_pct)),
                    (
                        "train_rows",
                        gdcm_obs::FieldValue::U64(report.n_train_rows as u64),
                    ),
                ],
            );
        }
        report
    }

    /// Builds `(features, targets)` for the cross product of the given
    /// devices and networks under a hardware representation.
    pub fn build_rows(
        &self,
        repr: &HardwareRepr,
        devices: &[usize],
        networks: &[usize],
    ) -> (DenseMatrix, Vec<f32>) {
        let width = self.data.encoder.len() + repr.len();
        let mut x = DenseMatrix::with_capacity(devices.len() * networks.len(), width);
        let mut y = Vec::with_capacity(devices.len() * networks.len());
        let mut row = Vec::with_capacity(width);
        for &d in devices {
            let hw = repr.encode(&self.data.devices[d], &self.data.db);
            for &n in networks {
                row.clear();
                row.extend_from_slice(self.data.encodings.row(n));
                row.extend_from_slice(&hw);
                x.push_row(&row);
                y.push(self.data.db.latency(d, n) as f32);
            }
        }
        (x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::{MutualInfoSelector, RandomSelector};

    fn config() -> PipelineConfig {
        PipelineConfig {
            gbdt: GbdtParams {
                n_estimators: 40,
                ..GbdtParams::default()
            },
            signature_size: 4,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn signature_beats_static_on_tiny_dataset() {
        let data = CostDataset::tiny(7, 20, 24);
        let pipeline = CostModelPipeline::new(&data, config());
        let static_report = pipeline.run_static();
        let sig_report = pipeline.run_signature(&MutualInfoSelector::default());
        assert!(
            sig_report.r2 > static_report.r2,
            "signature {:.3} vs static {:.3}",
            sig_report.r2,
            static_report.r2
        );
        assert!(sig_report.r2 > 0.5, "signature R² {:.3}", sig_report.r2);
    }

    #[test]
    fn report_shapes_are_consistent() {
        let data = CostDataset::tiny(3, 6, 10);
        let pipeline = CostModelPipeline::new(&data, config());
        let report = pipeline.run_signature(&MutualInfoSelector::default());
        assert_eq!(report.actual_ms.len(), report.predicted_ms.len());
        assert_eq!(report.signature.len(), 4);
        // 3 test devices x (24 - 4) networks.
        let (_, test) = pipeline.device_split();
        assert_eq!(report.actual_ms.len(), test.len() * (data.n_networks() - 4));
        assert_eq!(report.method, "MIS");
    }

    #[test]
    fn signature_rows_exclude_signature_networks() {
        let data = CostDataset::tiny(3, 6, 10);
        let pipeline = CostModelPipeline::new(&data, config());
        let report = pipeline.run_signature(&RandomSelector::new(1));
        let (train, _) = pipeline.device_split();
        let expected_rows = train.len() * (data.n_networks() - report.signature.len());
        assert_eq!(report.n_train_rows, expected_rows);
    }

    #[test]
    fn deterministic_given_seeds() {
        let data = CostDataset::tiny(3, 6, 10);
        let pipeline = CostModelPipeline::new(&data, config());
        let a = pipeline.run_signature(&RandomSelector::new(5));
        let b = pipeline.run_signature(&RandomSelector::new(5));
        assert_eq!(a, b);
    }

    #[test]
    fn log_target_roundtrip_reports_raw_scale() {
        let data = CostDataset::tiny(7, 12, 16);
        let mut cfg = config();
        cfg.log_target = true;
        let pipeline = CostModelPipeline::new(&data, cfg);
        let report = pipeline.run_signature(&RandomSelector::new(3));
        // Predictions must be on the millisecond scale, not log-ms.
        let mean_actual: f32 = report.actual_ms.iter().sum::<f32>() / report.actual_ms.len() as f32;
        let mean_pred: f32 =
            report.predicted_ms.iter().sum::<f32>() / report.predicted_ms.len() as f32;
        assert!(
            (mean_pred / mean_actual) > 0.3 && (mean_pred / mean_actual) < 3.0,
            "pred {mean_pred} vs actual {mean_actual}"
        );
    }

    #[test]
    fn parallel_folds_match_sequential_runs() {
        let data = CostDataset::tiny(3, 6, 10);
        let pipeline = CostModelPipeline::new(&data, config());
        let selector = RandomSelector::new(2);
        let folds: Vec<(Vec<usize>, Vec<usize>)> = vec![
            ((0..7).collect(), (7..10).collect()),
            ((3..10).collect(), (0..3).collect()),
            ((0..5).collect(), (5..10).collect()),
        ];
        let parallel = pipeline.run_signature_folds(&selector, &folds);
        let sequential: Vec<EvalReport> = folds
            .iter()
            .map(|(train, test)| pipeline.run_signature_with_split(&selector, train, test))
            .collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn leave_device_out_covers_every_device() {
        let data = CostDataset::tiny(3, 6, 8);
        let pipeline = CostModelPipeline::new(&data, config());
        let reports = pipeline.run_leave_device_out(&RandomSelector::new(0));
        assert_eq!(reports.len(), data.n_devices());
        for report in &reports {
            // Exactly one held-out device => test rows = one device's
            // non-signature networks.
            assert_eq!(
                report.actual_ms.len(),
                data.n_networks() - report.signature.len()
            );
        }
    }

    #[test]
    fn explicit_split_is_respected() {
        let data = CostDataset::tiny(3, 6, 10);
        let pipeline = CostModelPipeline::new(&data, config());
        let train: Vec<usize> = (0..7).collect();
        let test: Vec<usize> = (7..10).collect();
        let report = pipeline.run_static_with_split(&train, &test);
        assert_eq!(report.actual_ms.len(), test.len() * data.n_networks());
    }
}
