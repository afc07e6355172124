use hycim_fefet::{gaussian, MultiLevelSpec, VariationModel};
use rand::Rng;

use crate::filter::{FilterArray, FilterDecision, VoltageComparator};
use crate::{Matchline, MatchlineConfig};

/// The fast-path read of one filter array's matchline: the aggregate
/// discharge of a known load plus √load-scaled temporal noise. It holds
/// only what that read needs, so it outlives the cells it was
/// fabricated with.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct MatchlineReadout {
    config: MatchlineConfig,
    /// Fraction of the nominal clamp current an ON cell actually
    /// conducts: the 1FeFET1R series blend gives
    /// `I = I_clamp · I_on / (I_on + I_clamp)`, ≈ 0.98 at the paper's
    /// operating point. The fast path scales its unit drops by this so
    /// both fidelities share the same mean ML.
    effective_unit_fraction: f64,
    /// Relative per-cell current noise redrawn on every read.
    temporal_sigma_rel: f64,
}

impl MatchlineReadout {
    pub(crate) fn new(
        config: &MatchlineConfig,
        spec: &MultiLevelSpec,
        variation: &VariationModel,
    ) -> Self {
        let i_on = spec.i_on();
        Self {
            config: config.clone(),
            effective_unit_fraction: i_on / (i_on + config.cell_current),
            temporal_sigma_rel: variation.current_sigma_rel()
                * FilterArray::TEMPORAL_NOISE_FRACTION,
        }
    }

    pub(crate) fn config(&self) -> &MatchlineConfig {
        &self.config
    }

    /// The final ML voltage after discharging `load_units` weight units.
    pub(crate) fn read<R: Rng + ?Sized>(&self, load_units: u64, rng: &mut R) -> f64 {
        let mut ml = Matchline::precharged(&self.config);
        // Aggregate drop at the effective (series-blended) cell current…
        ml.discharge_units(load_units as f64 * self.effective_unit_fraction);
        // …plus per-read noise: each of the `load` conducting
        // cell-phases carries temporal current noise, so the summed
        // charge noise scales with √load.
        if self.temporal_sigma_rel > 0.0 && load_units > 0 {
            let sigma_units = self.temporal_sigma_rel * (load_units as f64).sqrt();
            let noise_units = gaussian(rng) * sigma_units;
            if noise_units > 0.0 {
                ml.discharge_units(noise_units);
                return ml.voltage();
            }
            // Negative noise: less discharge → add voltage back
            // (bounded by VDD).
            let v = ml.voltage() - noise_units * ml.config().unit_drop();
            return v.min(self.config.vdd);
        }
        ml.voltage()
    }
}

/// Everything the fast-path classification of one fabricated
/// [`InequalityFilter`](crate::filter::InequalityFilter) reads: the
/// matchline readout its working and replica arrays share, the
/// sampled comparator, the capacity and the decision margin — and no
/// cell arrays.
///
/// A simulated chip keeps one of these per constraint for the whole
/// annealing; [`InequalityFilter::classify_load`] is this type's
/// [`classify_load`](Self::classify_load), so both draw the same
/// stream and return the same bits.
///
/// [`InequalityFilter::classify_load`]: crate::filter::InequalityFilter::classify_load
///
/// # Example
///
/// ```
/// use hycim_cim::filter::{FilterConfig, InequalityFilter};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), hycim_cim::CimError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let filter = InequalityFilter::build(&[4, 7, 2], 9, &FilterConfig::default(), &mut rng)?;
/// let readout = filter.readout().clone();
/// drop(filter); // the cells go; the readout still classifies
/// assert!(readout.classify_load(6, &mut rng).is_feasible());
/// assert!(!readout.classify_load(13, &mut rng).is_feasible());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FilterReadout {
    line: MatchlineReadout,
    comparator: VoltageComparator,
    capacity: u64,
    /// Built-in feasibility bias (V): the comparator latch is skewed by
    /// half a weight unit so the exact-boundary case `Σwᵢxᵢ = C`
    /// (which the paper's Fig. 5(f) counts as feasible, `9 ≤ 9`)
    /// resolves feasible; the decision threshold then sits midway
    /// between loads `C` and `C+1`.
    decision_margin: f64,
}

impl FilterReadout {
    pub(crate) fn new(
        line: MatchlineReadout,
        comparator: VoltageComparator,
        capacity: u64,
        decision_margin: f64,
    ) -> Self {
        Self {
            line,
            comparator,
            capacity,
            decision_margin,
        }
    }

    pub(crate) fn capacity(&self) -> u64 {
        self.capacity
    }

    pub(crate) fn comparator(&self) -> &VoltageComparator {
        &self.comparator
    }

    pub(crate) fn decision_margin(&self) -> f64 {
        self.decision_margin
    }

    /// Fast-path classification from a precomputed load (the SA loop
    /// tracks `Σwᵢxᵢ` incrementally in O(1) per flip): working ML at
    /// `load`, replica ML at `C`, then one comparator decision.
    pub fn classify_load<R: Rng + ?Sized>(&self, load: u64, rng: &mut R) -> FilterDecision {
        let ml = self.line.read(load, rng);
        let replica_ml = self.line.read(self.capacity, rng);
        let feasible = self
            .comparator
            .at_least(ml + self.decision_margin, replica_ml, rng);
        FilterDecision {
            feasible,
            ml,
            replica_ml,
        }
    }
}
