//! Serializable model containers.
//!
//! Trained classifiers live behind `Box<dyn Classifier>` in the detection
//! pipeline, which cannot be serialized directly. [`AnyModel`] is the
//! closed serde-friendly sum of every model type in this crate — including
//! boosted ensembles, stored as their base models plus vote weights — so a
//! trained detector can be persisted and reloaded without retraining.
//!
//! [`AnyModel`] itself implements [`Classifier`], so a deserialized model
//! drops back into any pipeline slot.
//!
//! # Examples
//!
//! ```
//! use hmd_ml::model::AnyModel;
//! use hmd_ml::prelude::*;
//!
//! let data = Dataset::new(
//!     vec![vec![0.0], vec![0.1], vec![0.9], vec![1.0]],
//!     vec![0, 0, 1, 1],
//!     2,
//! )?;
//! let mut tree = J48::new();
//! tree.fit(&data)?;
//! let stored = AnyModel::from_classifier(&tree).expect("known type");
//! assert_eq!(stored.predict(&[0.95]), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::batch::BatchScratch;
use crate::boost::AdaBoost;
use crate::classifier::{Classifier, TrainError};
use crate::data::Dataset;
use crate::logistic::Mlr;
use crate::mlp::Mlp;
use crate::oner::OneR;
use crate::rules::JRip;
use crate::tree::J48;
use serde::{Deserialize, Serialize};

thread_local! {
    /// Reused base-model probability scratch for the allocation-free
    /// `predict_proba_into` path of [`AnyModel::Boosted`].
    static SNAPSHOT_MEMBER: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
    /// Reused base-model batch probability matrix for the
    /// `predict_proba_batch_into` path of [`AnyModel::Boosted`].
    static SNAPSHOT_BATCH: std::cell::RefCell<Vec<f64>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

/// A serializable snapshot of any fitted (or unfitted) model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AnyModel {
    /// C4.5 decision tree.
    J48(J48),
    /// RIPPER rule list.
    JRip(JRip),
    /// One-rule classifier.
    OneR(OneR),
    /// Multilayer perceptron.
    Mlp(Mlp),
    /// Multinomial logistic regression.
    Mlr(Mlr),
    /// Weighted-vote ensemble (a fitted AdaBoost snapshot).
    Boosted {
        /// Base models, in boosting order.
        bases: Vec<AnyModel>,
        /// Vote weight of each base (`ln(1/β)`).
        weights: Vec<f64>,
        /// Number of classes the ensemble distinguishes.
        n_classes: usize,
    },
}

impl AnyModel {
    /// Snapshots any classifier from this crate, an `AnyModel` included
    /// (it is cloned).
    ///
    /// Returns `None` for classifier types this enum does not know (e.g. a
    /// downstream implementation of the trait).
    pub fn from_classifier(model: &dyn Classifier) -> Option<AnyModel> {
        let any = model.as_any();
        // A restored detector's models are already snapshots.
        if let Some(m) = any.downcast_ref::<AnyModel>() {
            return Some(m.clone());
        }
        if let Some(m) = any.downcast_ref::<J48>() {
            return Some(AnyModel::J48(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<JRip>() {
            return Some(AnyModel::JRip(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<OneR>() {
            return Some(AnyModel::OneR(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<Mlp>() {
            return Some(AnyModel::Mlp(m.clone()));
        }
        if let Some(m) = any.downcast_ref::<Mlr>() {
            return Some(AnyModel::Mlr(m.clone()));
        }
        if let Some(ens) = any.downcast_ref::<AdaBoost>() {
            let bases: Option<Vec<AnyModel>> = ens
                .base_models()
                .into_iter()
                .map(AnyModel::from_classifier)
                .collect();
            return Some(AnyModel::Boosted {
                bases: bases?,
                weights: ens.vote_weights(),
                n_classes: ens.n_classes(),
            });
        }
        None
    }
}

impl Classifier for AnyModel {
    fn fit(&mut self, data: &Dataset) -> Result<(), TrainError> {
        match self {
            AnyModel::J48(m) => m.fit(data),
            AnyModel::JRip(m) => m.fit(data),
            AnyModel::OneR(m) => m.fit(data),
            AnyModel::Mlp(m) => m.fit(data),
            AnyModel::Mlr(m) => m.fit(data),
            AnyModel::Boosted { .. } => Err(TrainError::Unfittable(
                "a deserialized ensemble snapshot is read-only; train a fresh AdaBoost instead"
                    .into(),
            )),
        }
    }

    fn predict_proba(&self, x: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_classes()];
        self.predict_proba_into(x, &mut out);
        out
    }

    // hmd-analyze: hot-path
    // hmd-analyze: allow(transitive-hot-path-alloc, "enum match dispatch: every arm calls the member's non-allocating override, but match-bound receivers resolve name-wide and pick up the allocating compat shim")
    fn predict_proba_into(&self, x: &[f64], out: &mut [f64]) {
        match self {
            AnyModel::J48(m) => m.predict_proba_into(x, out),
            AnyModel::JRip(m) => m.predict_proba_into(x, out),
            AnyModel::OneR(m) => m.predict_proba_into(x, out),
            AnyModel::Mlp(m) => m.predict_proba_into(x, out),
            AnyModel::Mlr(m) => m.predict_proba_into(x, out),
            AnyModel::Boosted {
                bases,
                weights,
                n_classes,
            } => {
                assert!(!bases.is_empty(), "ensemble snapshot has no bases");
                assert_eq!(
                    out.len(),
                    *n_classes,
                    "predict_proba_into: out has {} slots for {} classes",
                    out.len(),
                    n_classes
                );
                out.fill(0.0);
                // Take the scratch out of the cell instead of borrowing so a
                // (hand-built) nested Boosted base recurses safely; the
                // steady-state path still reuses one buffer.
                let mut buf = SNAPSHOT_MEMBER.take();
                for (base, w) in bases.iter().zip(weights) {
                    buf.resize(base.n_classes(), 0.0);
                    base.predict_proba_into(x, &mut buf);
                    // Same argmax tie-break as the default `predict`.
                    out[crate::classifier::argmax(&buf)] += w;
                }
                SNAPSHOT_MEMBER.set(buf);
                let total: f64 = out.iter().sum();
                if total <= 0.0 {
                    out.fill(1.0 / *n_classes as f64);
                } else {
                    for v in out.iter_mut() {
                        *v /= total;
                    }
                }
            }
        }
    }

    // Delegates to each variant's batched kernel; the Boosted arm mirrors
    // the scalar round-major argmax-vote with a batch-wide base score per
    // round, keeping every lane's operation sequence identical to scalar.
    // hmd-analyze: hot-path
    fn predict_proba_batch_into(&self, batch: &BatchScratch, out: &mut [f64]) {
        match self {
            AnyModel::J48(m) => m.predict_proba_batch_into(batch, out),
            AnyModel::JRip(m) => m.predict_proba_batch_into(batch, out),
            AnyModel::OneR(m) => m.predict_proba_batch_into(batch, out),
            AnyModel::Mlp(m) => m.predict_proba_batch_into(batch, out),
            AnyModel::Mlr(m) => m.predict_proba_batch_into(batch, out),
            AnyModel::Boosted {
                bases,
                weights,
                n_classes,
            } => {
                assert!(!bases.is_empty(), "ensemble snapshot has no bases");
                let lanes = batch.n_lanes();
                assert_eq!(
                    out.len(),
                    lanes * n_classes,
                    "predict_proba_batch_into: out has {} slots for {} lanes × {} classes",
                    out.len(),
                    lanes,
                    n_classes
                );
                out.fill(0.0);
                // Take the scratch out of the cell instead of borrowing so a
                // (hand-built) nested Boosted base recurses safely.
                let mut buf = SNAPSHOT_BATCH.take();
                for (base, w) in bases.iter().zip(weights) {
                    let nc = base.n_classes();
                    buf.clear();
                    buf.resize(lanes * nc, 0.0);
                    base.predict_proba_batch_into(batch, &mut buf);
                    for (member_row, out_row) in
                        buf.chunks_exact(nc).zip(out.chunks_exact_mut(*n_classes))
                    {
                        // Same argmax tie-break as the scalar path.
                        out_row[crate::classifier::argmax(member_row)] += w;
                    }
                }
                SNAPSHOT_BATCH.set(buf);
                for out_row in out.chunks_exact_mut(*n_classes) {
                    let total: f64 = out_row.iter().sum();
                    if total <= 0.0 {
                        out_row.fill(1.0 / *n_classes as f64);
                    } else {
                        for v in out_row.iter_mut() {
                            *v /= total;
                        }
                    }
                }
            }
        }
    }

    fn n_classes(&self) -> usize {
        match self {
            AnyModel::J48(m) => m.n_classes(),
            AnyModel::JRip(m) => m.n_classes(),
            AnyModel::OneR(m) => m.n_classes(),
            AnyModel::Mlp(m) => m.n_classes(),
            AnyModel::Mlr(m) => m.n_classes(),
            AnyModel::Boosted { n_classes, .. } => *n_classes,
        }
    }

    fn name(&self) -> &'static str {
        match self {
            AnyModel::J48(_) => "J48",
            AnyModel::JRip(_) => "JRip",
            AnyModel::OneR(_) => "OneR",
            AnyModel::Mlp(_) => "MLP",
            AnyModel::Mlr(_) => "MLR",
            AnyModel::Boosted { .. } => "AdaBoost",
        }
    }

    fn clone_box(&self) -> Box<dyn Classifier> {
        Box::new(self.clone())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classifier::ClassifierKind;

    fn band() -> Dataset {
        let mut features = Vec::new();
        let mut labels = Vec::new();
        for i in 0..60 {
            let x = i as f64 / 60.0;
            features.push(vec![x, (i % 3) as f64]);
            labels.push(usize::from(x > 0.5));
        }
        Dataset::new(features, labels, 2).unwrap()
    }

    #[test]
    fn snapshot_preserves_predictions_for_every_kind() {
        let data = band();
        for kind in ClassifierKind::ALL {
            let mut model = kind.build(7);
            model.fit(&data).unwrap();
            let snapshot = AnyModel::from_classifier(model.as_ref()).expect("known kind");
            assert_eq!(snapshot.name(), kind.name());
            for i in 0..data.len() {
                assert_eq!(
                    snapshot.predict_proba(data.features_of(i)),
                    model.predict_proba(data.features_of(i)),
                    "{kind} snapshot diverged"
                );
            }
        }
    }

    #[test]
    fn boosted_snapshot_matches_live_ensemble() {
        let data = band();
        let mut ens = AdaBoost::new(ClassifierKind::OneR, 5, 3);
        ens.fit(&data).unwrap();
        let snapshot = AnyModel::from_classifier(&ens).expect("ensemble snapshots");
        for i in 0..data.len() {
            assert_eq!(
                snapshot.predict(data.features_of(i)),
                ens.predict(data.features_of(i))
            );
        }
        assert_eq!(snapshot.name(), "AdaBoost");
    }

    #[test]
    fn snapshot_is_refittable_except_ensembles() {
        let data = band();
        let mut snap = AnyModel::J48(J48::new());
        snap.fit(&data).unwrap();
        assert!(snap.predict(&[0.9, 0.0]) == 1);

        let mut boosted = AnyModel::Boosted {
            bases: vec![snap.clone()],
            weights: vec![1.0],
            n_classes: 2,
        };
        assert!(matches!(boosted.fit(&data), Err(TrainError::Unfittable(_))));
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let data = band();
        let mut ens = AdaBoost::new(ClassifierKind::J48, 4, 1);
        ens.fit(&data).unwrap();
        let snapshot = AnyModel::from_classifier(&ens).unwrap();
        let json = serde_json::to_string(&snapshot).expect("serializes");
        let restored: AnyModel = serde_json::from_str(&json).expect("deserializes");
        for i in 0..data.len() {
            assert_eq!(
                restored.predict_proba(data.features_of(i)),
                snapshot.predict_proba(data.features_of(i))
            );
        }
    }
}
