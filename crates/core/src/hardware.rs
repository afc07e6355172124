//! Hardware-backed [`AnnealState`] implementations: the glue between
//! the SA logic and the CiM circuit models (paper Fig. 3 / Fig. 6(b)).
//!
//! Per DESIGN.md §2, the SA hot loop does not re-simulate every cell
//! per iteration; it uses the crossbar's *stored* (quantized) matrix
//! for incremental deltas plus statistically matched readout noise,
//! and the inequality filter's fast path (which still includes
//! matchline noise, comparator offset and decision noise). The
//! device-accurate paths of `hycim-cim` validate this equivalence in
//! tests and generate the paper's validation figures.

use hycim_anneal::{AnnealState, FlipOutcome};
use hycim_cim::crossbar::{Crossbar, CrossbarConfig};
use hycim_cim::filter::{FilterBank, FilterConfig};
use hycim_cim::CimError;
use hycim_qubo::dqubo::DquboForm;
use hycim_qubo::quant::QuantizedMatrix;
use hycim_qubo::{Assignment, DeltaEngine, InequalityQubo, MultiInequalityQubo, QuboMatrix};
use rand::rngs::StdRng;
use rand::Rng;

/// The HyCiM pipeline state: a [`FilterBank`] (one inequality filter
/// per constraint) + CiM crossbar + SA bookkeeping (paper Fig. 3).
///
/// The paper's single inequality filter is the `k = 1` bank. With
/// more constraints the bank programs the *exact* per-constraint form
/// of multi-constraint COPs (bin packing, the multi-dimensional
/// knapsack) instead of an aggregate-capacity relaxation: every
/// proposed flip is classified by all `k` filters concurrently (in
/// hardware the bank shares one 4-phase matchline read, so the
/// latency is that of a single filter) and reaches the crossbar only
/// when every filter admits it.
///
/// The SA hot loop tracks each constraint's load `Σw⁽ᵏ⁾ᵢxᵢ`
/// incrementally — O(k) per flip — and uses the filters' fast path
/// (matchline + comparator noise included) rather than re-simulating
/// every cell.
#[derive(Debug, Clone)]
pub struct BankHardwareState {
    /// The matrix the crossbar actually stores (quantized).
    matrix: QuboMatrix,
    bank: FilterBank,
    /// Constraint weights, item-major: `weights[i * k + c]` is item
    /// `i`'s weight in constraint `c`, so a flip reads one contiguous
    /// run of `k`.
    weights: Vec<u64>,
    x: Assignment,
    /// Current per-constraint loads, index-aligned with the bank.
    loads: Vec<u64>,
    /// Energy as reported by the hardware (accumulated noisy deltas) —
    /// what the SA logic sees.
    energy: f64,
    /// Per-readout energy noise sigma.
    readout_sigma: f64,
    /// Flip-delta backend over the stored matrix (local fields by
    /// default).
    deltas: DeltaEngine,
}

impl BankHardwareState {
    /// Builds the hardware state for a multi-inequality QUBO problem:
    /// programs one filter per constraint and the crossbar with the
    /// objective, then initializes at `initial` (must satisfy every
    /// constraint).
    ///
    /// Device variability is sampled from `rng` filter-by-filter in
    /// constraint order, then for the crossbar — so a fixed hardware
    /// seed fabricates the same "chip instance" (bank included) on
    /// every build, which is what keeps bank solves bit-identical
    /// across threads and services.
    ///
    /// # Errors
    ///
    /// Propagates [`CimError`] from filter-bank or crossbar
    /// construction.
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates any constraint.
    pub fn build(
        problem: &MultiInequalityQubo,
        filter_config: &FilterConfig,
        crossbar_config: &CrossbarConfig,
        initial: Assignment,
        rng: &mut StdRng,
    ) -> Result<Self, CimError> {
        assert!(
            problem.is_feasible(&initial),
            "initial configuration must satisfy every constraint"
        );
        let bank = FilterBank::build(problem.constraints(), filter_config, rng)?;
        let crossbar = Crossbar::program(problem.objective(), crossbar_config, rng)?;
        let matrix = crossbar.stored_matrix().clone();
        // Typical readout activates about half the programmed cells.
        let typical_active = crossbar.mapping().programmed_cells() / 2;
        let readout_sigma = crossbar.readout_sigma(typical_active);
        let constraints = problem.constraints();
        let weights = (0..problem.dim())
            .flat_map(|i| constraints.iter().map(move |c| c.weights()[i]))
            .collect();
        let loads = problem.loads(&initial);
        let energy = matrix.energy(&initial);
        let deltas = DeltaEngine::local(&matrix, &initial);
        Ok(Self {
            matrix,
            bank,
            weights,
            x: initial,
            loads,
            energy,
            readout_sigma,
            deltas,
        })
    }

    /// Switches to dense O(n) row-scan deltas over the stored matrix
    /// (benchmark/equivalence use only — the default local-field
    /// backend reports the same deltas in O(1)).
    pub fn with_dense_deltas(mut self) -> Self {
        self.deltas = DeltaEngine::dense();
        self
    }

    /// Current per-constraint loads, in bank order.
    pub fn loads(&self) -> &[u64] {
        &self.loads
    }

    /// The filter bank in use.
    pub fn bank(&self) -> &FilterBank {
        &self.bank
    }

    /// The stored (quantized) objective matrix.
    pub fn stored_matrix(&self) -> &QuboMatrix {
        &self.matrix
    }

    /// Per-readout energy noise sigma.
    pub fn readout_sigma(&self) -> f64 {
        self.readout_sigma
    }

    /// Asks the whole bank whether the configuration after flipping
    /// `bits` (distinct indices; none for the current configuration)
    /// satisfies every constraint. Every filter reads, in bank order,
    /// even after a veto, so the solve stream draws exactly what
    /// [`FilterBank::classify_loads`] draws — without collecting the
    /// per-filter decisions.
    fn admit(&self, bits: &[usize], rng: &mut StdRng) -> bool {
        let k = self.loads.len();
        let mut feasible = true;
        for (c, (filter, &load)) in self.bank.filters().iter().zip(&self.loads).enumerate() {
            let mut load = load as i64;
            for &i in bits {
                let w = self.weights[i * k + c] as i64;
                load += if self.x.get(i) { -w } else { w };
            }
            debug_assert!(load >= 0, "loads are sums of selected non-negative weights");
            feasible &= filter.classify_load(load.max(0) as u64, rng).is_feasible();
        }
        feasible
    }

    /// Applies a committed flip of `bits` to the load caches.
    fn apply(&mut self, bits: &[usize]) {
        let k = self.loads.len();
        for &i in bits {
            let selected = self.x.flip(i);
            let row = &self.weights[i * k..(i + 1) * k];
            for (load, &w) in self.loads.iter_mut().zip(row) {
                if selected {
                    *load += w;
                } else {
                    *load -= w;
                }
            }
        }
    }
}

impl AnnealState for BankHardwareState {
    fn dim(&self) -> usize {
        self.matrix.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome {
        // All k filters evaluate the proposal concurrently (fast
        // path: analog matchline + comparator noise per filter).
        if !self.admit(&[i], rng) {
            return FlipOutcome::Infeasible;
        }
        // Feasible: the crossbar computes the QUBO energy; modeled as
        // the stored matrix's exact delta plus readout noise.
        let delta =
            self.deltas.flip_delta(&self.matrix, &self.x, i) + gaussian(rng) * self.readout_sigma;
        FlipOutcome::Feasible { delta }
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        self.apply(&[i]);
        self.deltas.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        if !self.admit(&[i, j], rng) {
            return FlipOutcome::Infeasible;
        }
        let delta = self.deltas.pair_delta(&self.matrix, &self.x, i, j)
            + gaussian(rng) * self.readout_sigma;
        FlipOutcome::Feasible { delta }
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        self.apply(&[i, j]);
        self.deltas.commit_pair(&self.x, i, j);
        self.energy += delta;
    }

    fn verify_best(&mut self, rng: &mut StdRng) -> bool {
        // Paper Fig. 6(b): before the accepted configuration replaces
        // the reserved best x_o it passes the inequality evaluation
        // again. Two extra reads of the whole bank make a rare noisy
        // false-feasible admission on any filter vanishingly unlikely
        // to persist.
        (0..2).all(|_| self.admit(&[], rng))
    }
}

/// The name of the single-filter pipeline state from before it became
/// the `k = 1` [`BankHardwareState`]. The type has no values; it keeps
/// `HyCimHardwareState::build` compiling for the end-to-end
/// benchmark's hand-assembled hycim solve, which builds its chip
/// through this name.
#[derive(Debug)]
pub enum HyCimHardwareState {}

impl HyCimHardwareState {
    /// Builds the one-filter bank for an inequality-QUBO problem —
    /// `BankHardwareState::build` over
    /// `MultiInequalityQubo::from(problem.clone())`, which fabricates
    /// the same chip from `rng` and draws the same solve stream as the
    /// single-filter pipeline did.
    ///
    /// # Errors
    ///
    /// Propagates [`CimError`] from filter or crossbar construction.
    ///
    /// # Panics
    ///
    /// Panics if `initial` violates the constraint.
    pub fn build(
        problem: &InequalityQubo,
        filter_config: &FilterConfig,
        crossbar_config: &CrossbarConfig,
        initial: Assignment,
        rng: &mut StdRng,
    ) -> Result<BankHardwareState, CimError> {
        BankHardwareState::build(
            &MultiInequalityQubo::from(problem.clone()),
            filter_config,
            crossbar_config,
            initial,
            rng,
        )
    }
}

/// The D-QUBO baseline state: the penalty-form matrix on a (much
/// larger) crossbar, no filter — every move is admissible and pays a
/// full crossbar evaluation (paper Sec 2.1, Fig. 10).
///
/// The expanded matrix is quantized at
/// `⌈log₂(Q_ij)MAX⌉` bits (or an explicit override for ablations) but
/// not materialized as a cell array: at n ≈ 2600 and 25 bits that
/// would be hundreds of millions of cells (the very overhead Fig. 9(c)
/// charges against D-QUBO).
#[derive(Debug, Clone)]
pub struct DquboHardwareState {
    matrix: QuboMatrix,
    offset: f64,
    x: Assignment,
    energy: f64,
    readout_sigma: f64,
    num_items: usize,
    /// Flip-delta backend over the stored matrix (local fields by
    /// default).
    deltas: DeltaEngine,
}

impl DquboHardwareState {
    /// Builds the baseline state from a D-QUBO form. `bits` overrides
    /// the quantization width (`None` → `⌈log₂(Q_ij)MAX⌉`, the paper's
    /// setting, which is lossless for integer penalties).
    pub fn build(
        form: &DquboForm,
        bits: Option<u32>,
        current_sigma_rel: f64,
        initial: Assignment,
    ) -> Self {
        assert_eq!(initial.len(), form.dim(), "configuration length mismatch");
        let bits = bits.unwrap_or_else(|| hycim_qubo::quant::matrix_bits(form.matrix()));
        let quant = QuantizedMatrix::quantize(form.matrix(), bits);
        let matrix = quant.dequantize();
        // Same readout model as the HyCiM crossbar: σ grows with the
        // active cell count, which for the D-QUBO matrix is large.
        let typical_active = matrix.nonzeros() * bits as usize / 2;
        let readout_sigma = current_sigma_rel * (typical_active as f64).sqrt() * quant.scale();
        let energy = matrix.energy(&initial) + form.offset();
        let deltas = DeltaEngine::local(&matrix, &initial);
        Self {
            matrix,
            offset: form.offset(),
            x: initial,
            energy,
            readout_sigma,
            num_items: form.num_items(),
            deltas,
        }
    }

    /// Switches to dense O(n) row-scan deltas over the stored matrix
    /// (benchmark/equivalence use only).
    pub fn with_dense_deltas(mut self) -> Self {
        self.deltas = DeltaEngine::dense();
        self
    }

    /// Item part of the current configuration.
    pub fn item_assignment(&self) -> Assignment {
        self.x.truncated(self.num_items)
    }

    /// Per-readout energy noise sigma.
    pub fn readout_sigma(&self) -> f64 {
        self.readout_sigma
    }

    /// The stored (quantized) penalty matrix.
    pub fn stored_matrix(&self) -> &QuboMatrix {
        &self.matrix
    }

    /// Constant offset of the penalty expansion.
    pub fn offset(&self) -> f64 {
        self.offset
    }
}

impl AnnealState for DquboHardwareState {
    fn dim(&self) -> usize {
        self.matrix.dim()
    }

    fn assignment(&self) -> &Assignment {
        &self.x
    }

    fn energy(&self) -> f64 {
        self.energy
    }

    fn probe_flip(&mut self, i: usize, rng: &mut StdRng) -> FlipOutcome {
        FlipOutcome::Feasible {
            delta: self.deltas.flip_delta(&self.matrix, &self.x, i)
                + gaussian(rng) * self.readout_sigma,
        }
    }

    fn commit_flip(&mut self, i: usize, delta: f64) {
        self.x.flip(i);
        self.deltas.commit_flip(&self.x, i);
        self.energy += delta;
    }

    fn probe_pair(&mut self, i: usize, j: usize, rng: &mut StdRng) -> FlipOutcome {
        assert_ne!(i, j, "pair flip needs two distinct bits");
        let delta = self.deltas.pair_delta(&self.matrix, &self.x, i, j)
            + gaussian(rng) * self.readout_sigma;
        FlipOutcome::Feasible { delta }
    }

    fn commit_pair(&mut self, i: usize, j: usize, delta: f64) {
        self.x.flip(i);
        self.x.flip(j);
        self.deltas.commit_pair(&self.x, i, j);
        self.energy += delta;
    }
}

fn gaussian(rng: &mut StdRng) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.random::<f64>();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hycim_cop::generator::QkpGenerator;
    use hycim_fefet::VariationModel;
    use hycim_qubo::dqubo::{AuxEncoding, PenaltyWeights};
    use rand::SeedableRng;

    fn noiseless_filter_config() -> FilterConfig {
        FilterConfig::default()
            .with_variation(VariationModel::none())
            .with_comparator(hycim_cim::filter::ComparatorConfig::ideal())
    }

    #[test]
    fn hycim_state_matches_software_when_noise_free() {
        let inst = QkpGenerator::new(25, 0.5).generate(1);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let mut hw = HyCimHardwareState::build(
            &iq,
            &noiseless_filter_config(),
            &cb_cfg,
            Assignment::zeros(25),
            &mut rng,
        )
        .unwrap();
        // Random walk: energies must track the exact objective (7-bit
        // quantization of ≤100 profits is lossless).
        for step in 0..300 {
            let i = step % 25;
            match hw.probe_flip(i, &mut rng) {
                FlipOutcome::Feasible { delta } => {
                    hw.commit_flip(i, delta);
                    let expected = iq.objective_energy(hw.assignment());
                    assert!(
                        (hw.energy() - expected).abs() < 1e-6,
                        "hardware energy diverged at step {step}"
                    );
                    assert!(iq.is_feasible(hw.assignment()));
                }
                FlipOutcome::Infeasible => {
                    // Verify the veto was correct.
                    let mut probe = hw.assignment().clone();
                    probe.flip(i);
                    assert!(
                        !iq.is_feasible(&probe),
                        "ideal filter vetoed a feasible flip"
                    );
                }
            }
        }
    }

    #[test]
    fn hycim_state_rejects_infeasible_start() {
        let inst = QkpGenerator::new(10, 0.5).generate(3);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let heavy = Assignment::ones_vec(10);
        if !iq.is_feasible(&heavy) {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                HyCimHardwareState::build(
                    &iq,
                    &noiseless_filter_config(),
                    &CrossbarConfig::paper(),
                    heavy,
                    &mut rng,
                )
            }));
            assert!(result.is_err());
        }
    }

    #[test]
    fn noisy_probes_have_spread() {
        let inst = QkpGenerator::new(30, 1.0).generate(5);
        let iq = inst.to_inequality_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        let mut hw = HyCimHardwareState::build(
            &iq,
            &FilterConfig::default(),
            &CrossbarConfig::paper(),
            Assignment::zeros(30),
            &mut rng,
        )
        .unwrap();
        assert!(hw.readout_sigma() > 0.0);
        let deltas: Vec<f64> = (0..50)
            .filter_map(|_| match hw.probe_flip(0, &mut rng) {
                FlipOutcome::Feasible { delta } => Some(delta),
                FlipOutcome::Infeasible => None,
            })
            .collect();
        assert!(deltas.len() > 10);
        assert!(deltas.iter().any(|&d| (d - deltas[0]).abs() > 1e-12));
    }

    /// A 4-item, 2-bin packing in multi-inequality form.
    fn bank_problem() -> (hycim_cop::binpack::BinPacking, MultiInequalityQubo) {
        use hycim_cop::CopProblem;
        let bp = hycim_cop::binpack::BinPacking::new(vec![4, 5, 3, 6], 9, 2).unwrap();
        let mq = bp.to_multi_inequality_qubo().unwrap();
        (bp, mq)
    }

    #[test]
    fn bank_state_matches_software_when_noise_free() {
        let (bp, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(21);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let mut hw = BankHardwareState::build(
            &mq,
            &noiseless_filter_config(),
            &cb_cfg,
            Assignment::zeros(mq.dim()),
            &mut rng,
        )
        .unwrap();
        assert_eq!(hw.bank().len(), 2);
        // Random walk: energies must track the exact objective and the
        // trajectory must stay inside every bin's capacity.
        for step in 0..400 {
            let i = step % mq.dim();
            match hw.probe_flip(i, &mut rng) {
                FlipOutcome::Feasible { delta } => {
                    hw.commit_flip(i, delta);
                    let expected = mq.objective_energy(hw.assignment());
                    assert!(
                        (hw.energy() - expected).abs() < 1e-6,
                        "bank energy diverged at step {step}"
                    );
                    assert!(mq.is_feasible(hw.assignment()));
                    assert_eq!(hw.loads(), mq.loads(hw.assignment()).as_slice());
                    for k in 0..bp.num_bins() {
                        assert!(bp.bin_load(hw.assignment(), k) <= bp.capacity());
                    }
                    assert!(hw.verify_best(&mut rng));
                }
                FlipOutcome::Infeasible => {
                    let mut probe = hw.assignment().clone();
                    probe.flip(i);
                    assert!(
                        !mq.is_feasible(&probe),
                        "ideal bank vetoed a feasible flip at step {step}"
                    );
                }
            }
        }
    }

    #[test]
    fn bank_pair_probe_matches_sequential_arithmetic() {
        let (_, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(22);
        let cb_cfg = CrossbarConfig::paper().with_variation(VariationModel::none());
        let mut hw = BankHardwareState::build(
            &mq,
            &noiseless_filter_config(),
            &cb_cfg,
            Assignment::zeros(mq.dim()),
            &mut rng,
        )
        .unwrap();
        // A pair flip landing inside both bins is admitted with the
        // exact cross-term delta.
        if let FlipOutcome::Feasible { delta } = hw.probe_pair(0, 3, &mut rng) {
            hw.commit_pair(0, 3, delta);
            let expected = mq.objective_energy(hw.assignment());
            assert!((hw.energy() - expected).abs() < 1e-6);
            assert_eq!(hw.loads(), mq.loads(hw.assignment()).as_slice());
        } else {
            panic!("items 0 (bin 0) and 1 (bin 1) fit their bins");
        }
        // A pair flip overloading one bin is vetoed: items 1 and 2
        // into bin 0 on top of item 0 → 4 + 5 + 3 = 12 > 9.
        // Current x has vars 0 (item0→bin0) and 3 (item1→bin1) set.
        let before = hw.assignment().clone();
        match hw.probe_pair(2, 4, &mut rng) {
            FlipOutcome::Infeasible => {}
            FlipOutcome::Feasible { .. } => {
                panic!("overloading bin 0 must be vetoed")
            }
        }
        assert_eq!(hw.assignment(), &before, "probe must not mutate");
    }

    #[test]
    fn bank_state_rejects_infeasible_start() {
        let (_, mq) = bank_problem();
        let mut rng = StdRng::seed_from_u64(23);
        // Everything into bin 0: violates its capacity.
        let mut heavy = Assignment::zeros(mq.dim());
        for i in 0..4 {
            heavy.set(i * 2, true);
        }
        assert!(!mq.is_feasible(&heavy));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            BankHardwareState::build(
                &mq,
                &noiseless_filter_config(),
                &CrossbarConfig::paper(),
                heavy,
                &mut rng,
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn bank_state_handles_mkp_dimensions() {
        use hycim_cop::CopProblem;
        let mkp = hycim_cop::mkp::MkpGenerator::new(12, 3).generate(5);
        let mq = mkp.to_multi_inequality_qubo().unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let mut hw = BankHardwareState::build(
            &mq,
            &noiseless_filter_config(),
            &CrossbarConfig::paper().with_variation(VariationModel::none()),
            Assignment::zeros(12),
            &mut rng,
        )
        .unwrap();
        assert_eq!(hw.bank().len(), 3);
        for step in 0..300 {
            let i = step % 12;
            if let FlipOutcome::Feasible { delta } = hw.probe_flip(i, &mut rng) {
                hw.commit_flip(i, delta);
                assert!(mkp.is_feasible(hw.assignment()), "step {step} violated");
            }
        }
    }

    /// Dense and local-field backends are bit-identical on the noisy
    /// single-filter hardware state: the 7-bit quantization of integer
    /// QKP profits is lossless, so both backends report the exact same
    /// deltas, consume the same RNG stream, and take the same accept
    /// decisions — the whole trajectory matches.
    #[test]
    fn hycim_state_dense_and_local_runs_are_bit_identical() {
        use hycim_anneal::{Annealer, GeometricSchedule};
        let inst = QkpGenerator::new(30, 0.5).generate(31);
        let iq = inst.to_inequality_qubo().unwrap();
        let annealer = Annealer::new(GeometricSchedule::new(40.0, 0.995), 800);
        let build = |rng: &mut StdRng| {
            HyCimHardwareState::build(
                &iq,
                &FilterConfig::default(),
                &CrossbarConfig::paper(),
                Assignment::zeros(30),
                rng,
            )
            .unwrap()
        };
        let mut hw_rng = StdRng::seed_from_u64(7);
        let mut local = build(&mut hw_rng);
        let mut hw_rng = StdRng::seed_from_u64(7);
        let mut dense = build(&mut hw_rng).with_dense_deltas();
        let mut rng_a = StdRng::seed_from_u64(99);
        let mut rng_b = StdRng::seed_from_u64(99);
        let trace_local = annealer.run(&mut local, &mut rng_a);
        let trace_dense = annealer.run(&mut dense, &mut rng_b);
        assert_eq!(trace_local, trace_dense);
        assert_eq!(local.assignment(), dense.assignment());
        assert_eq!(local.energy(), dense.energy());
        assert_eq!(local.loads()[0], dense.loads()[0]);
    }

    /// Same bit-identity law on the filter-bank state (MKP, 3
    /// constraints, noisy filters).
    #[test]
    fn bank_state_dense_and_local_runs_are_bit_identical() {
        use hycim_anneal::{Annealer, GeometricSchedule};
        use hycim_cop::CopProblem;
        let mkp = hycim_cop::mkp::MkpGenerator::new(14, 3).generate(8);
        let mq = mkp.to_multi_inequality_qubo().unwrap();
        let annealer = Annealer::new(GeometricSchedule::new(40.0, 0.99), 600);
        let build = |rng: &mut StdRng| {
            BankHardwareState::build(
                &mq,
                &FilterConfig::default(),
                &CrossbarConfig::paper(),
                Assignment::zeros(mq.dim()),
                rng,
            )
            .unwrap()
        };
        let mut hw_rng = StdRng::seed_from_u64(11);
        let mut local = build(&mut hw_rng);
        let mut hw_rng = StdRng::seed_from_u64(11);
        let mut dense = build(&mut hw_rng).with_dense_deltas();
        let mut rng_a = StdRng::seed_from_u64(42);
        let mut rng_b = StdRng::seed_from_u64(42);
        let trace_local = annealer.run(&mut local, &mut rng_a);
        let trace_dense = annealer.run(&mut dense, &mut rng_b);
        assert_eq!(trace_local, trace_dense);
        assert_eq!(local.loads(), dense.loads());
    }

    /// Same bit-identity law on the filterless D-QUBO baseline state
    /// (integer penalties are lossless at the default bit width).
    #[test]
    fn dqubo_state_dense_and_local_runs_are_bit_identical() {
        use hycim_anneal::{Annealer, GeometricSchedule};
        let inst = QkpGenerator::new(12, 0.5)
            .with_capacity_range(10, 40)
            .generate(13);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .unwrap();
        let annealer = Annealer::new(GeometricSchedule::new(60.0, 0.99), 600);
        let mut local = DquboHardwareState::build(&form, None, 0.02, Assignment::zeros(form.dim()));
        let mut dense = DquboHardwareState::build(&form, None, 0.02, Assignment::zeros(form.dim()))
            .with_dense_deltas();
        let mut rng_a = StdRng::seed_from_u64(5);
        let mut rng_b = StdRng::seed_from_u64(5);
        let trace_local = annealer.run(&mut local, &mut rng_a);
        let trace_dense = annealer.run(&mut dense, &mut rng_b);
        assert_eq!(trace_local, trace_dense);
        assert_eq!(local.assignment(), dense.assignment());
    }

    #[test]
    fn dqubo_state_energy_tracks_form() {
        let inst = QkpGenerator::new(8, 0.75)
            .with_capacity_range(10, 30)
            .generate(7);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::OneHot)
            .unwrap();
        let mut state = DquboHardwareState::build(&form, None, 0.0, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(8);
        for step in 0..200 {
            let i = step % form.dim();
            if let FlipOutcome::Feasible { delta } = state.probe_flip(i, &mut rng) {
                state.commit_flip(i, delta);
            }
        }
        // Noise-free: tracked energy equals the exact form energy
        // (default bits are lossless for integer penalties).
        let expected = form.energy(state.assignment());
        assert!(
            (state.energy() - expected).abs() < 1e-6,
            "dqubo energy {} vs exact {expected}",
            state.energy()
        );
        assert_eq!(state.item_assignment().len(), 8);
    }

    #[test]
    fn dqubo_pair_probe_matches_sequential_flips() {
        let inst = QkpGenerator::new(6, 1.0)
            .with_capacity_range(10, 20)
            .generate(9);
        let form = inst
            .to_dqubo(PenaltyWeights::PAPER, AuxEncoding::Binary)
            .unwrap();
        let mut state = DquboHardwareState::build(&form, None, 0.0, Assignment::zeros(form.dim()));
        let mut rng = StdRng::seed_from_u64(10);
        let before = state.energy();
        if let FlipOutcome::Feasible { delta } = state.probe_pair(0, 3, &mut rng) {
            state.commit_pair(0, 3, delta);
        }
        let expected = form.energy(state.assignment());
        assert!((state.energy() - expected).abs() < 1e-6);
        assert_ne!(state.energy(), before);
    }
}
