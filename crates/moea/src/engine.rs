//! The generational engine driving NSGA-II and NSGA-III, with the repair
//! hook of the paper's Fig. 4 ("NSGA-III enhanced with tabu search in
//! reproduction process"). Populations are evaluated serially, in index
//! order.

use crate::crowding::assign_crowding_distance;
use crate::individual::Individual;
use crate::nsga3::{associate, niching_select, normalize};
use crate::operators::{
    polynomial_mutation, reset_mutation, sbx, uniform_crossover, PmParams, SbxParams,
};
use crate::problem::{clamp_genes, Evaluation, MoeaProblem};
use crate::refpoints::{das_dennis, divisions_for};
use crate::selection::{tournament_nsga2, tournament_nsga3, tournament_unsga3};
use crate::sort::fast_non_dominated_sort;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Which elitist selection the engine runs.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Variant {
    /// NSGA-II: rank + crowding distance (Deb et al. 2002).
    Nsga2,
    /// NSGA-III: rank + reference-point niching (Deb & Jain 2014).
    Nsga3,
    /// U-NSGA-III (Seada & Deb 2014, the paper's ref. 28): NSGA-III
    /// environmental selection plus a niching-based mating tournament.
    UNsga3,
}

/// Constraint-handling strategy, mirroring the paper's list of methods
/// ("excluding the individuals that are not in line with the constraints;
/// fixing faulty individuals through a repair process; …").
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RepairMode {
    /// No repair (unmodified NSGA-II / NSGA-III); constraint-domination
    /// only.
    Off,
    /// Method 1 — exclusion: infeasible offspring are discarded and
    /// regenerated (bounded retries). The paper finds this "inefficient
    /// because it excludes too many individuals"; kept for the ablation.
    Exclude,
    /// Method 2, wired at parent selection (the literal Fig. 4 pipeline).
    Parents,
    /// Method 2, wired after variation.
    Offspring,
    /// Method 2 at both points (the configuration the paper's hybrid
    /// effectively needs for a violation-free final population).
    Both,
}

/// Variation-operator family.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Operators {
    /// SBX + polynomial mutation — the paper's "SBX and PM standard".
    RealCoded,
    /// Uniform crossover + random-reset mutation — the classic choice for
    /// integer genomes (server ids); compared in `ablation_operators`.
    IntegerStyle,
}

/// Engine configuration. `paper_defaults` reproduces Table III.
#[derive(Clone, Debug)]
pub struct NsgaConfig {
    /// Population size (Table III: 100).
    pub population_size: usize,
    /// Evaluation budget (Table III: 10 000).
    pub max_evaluations: usize,
    /// SBX parameters (Table III: rate 0.70, DI 15).
    pub sbx: SbxParams,
    /// PM parameters (Table III: rate 0.20, DI 15).
    pub pm: PmParams,
    /// Selection variant.
    pub variant: Variant,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// No effect: populations are always evaluated serially, in index
    /// order. Kept so existing configurations still build.
    pub parallel_eval: bool,
    /// When the repair hook is invoked.
    pub repair_mode: RepairMode,
    /// Optional wall-clock budget; the run stops at the end of the
    /// generation that exceeds it (the paper targets responses < 2 min).
    pub deadline: Option<Duration>,
    /// Variation-operator family (the paper uses [`Operators::RealCoded`]).
    pub operators: Operators,
    /// Genomes injected into the initial population (warm starts — e.g.
    /// the running allocation `X^t`, so the search explores around the
    /// incumbent and the migration term stays meaningful). Extra genomes
    /// beyond the population size are ignored; each is clamped to bounds.
    pub seeds: Vec<Vec<f64>>,
}

impl NsgaConfig {
    /// The paper's Table III settings for the given variant.
    pub fn paper_defaults(variant: Variant) -> Self {
        Self {
            population_size: 100,
            max_evaluations: 10_000,
            sbx: SbxParams {
                rate: 0.70,
                distribution_index: 15.0,
            },
            pm: PmParams {
                rate: 0.20,
                distribution_index: 15.0,
            },
            variant,
            seed: 0,
            parallel_eval: false,
            repair_mode: RepairMode::Off,
            deadline: None,
            operators: Operators::RealCoded,
            seeds: Vec::new(),
        }
    }

    /// Same settings with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same settings with a repair mode.
    pub fn with_repair(mut self, mode: RepairMode) -> Self {
        self.repair_mode = mode;
        self
    }
}

/// Per-generation statistics for convergence analysis.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GenStats {
    /// Generation index.
    pub generation: usize,
    /// Evaluations consumed so far.
    pub evaluations: usize,
    /// Number of feasible individuals in the population.
    pub feasible: usize,
    /// Minimum violation in the population.
    pub min_violation: f64,
    /// Best (lowest) sum of objectives among feasible individuals, if any.
    pub best_feasible_total: Option<f64>,
}

/// Result of one engine run.
#[derive(Clone, Debug)]
pub struct MoeaResult {
    /// Final population, non-dominated-sorted (rank field set).
    pub population: Vec<Individual>,
    /// Total number of problem evaluations performed.
    pub evaluations: usize,
    /// Number of generations completed.
    pub generations: usize,
    /// Per-generation convergence history.
    pub history: Vec<GenStats>,
    /// Wall-clock time of the run.
    pub elapsed: Duration,
}

impl MoeaResult {
    /// The first (best) non-domination front.
    pub fn first_front(&self) -> Vec<&Individual> {
        self.population.iter().filter(|i| i.rank == 0).collect()
    }

    /// The individual closest (Euclidean, on raw objectives) to the ideal
    /// point of the final population — the paper's decision rule: "we
    /// choose the solution that is found closer to the ideal point".
    /// Feasible individuals are preferred; among infeasibles the least
    /// violating wins.
    pub fn closest_to_ideal(&self) -> Option<&Individual> {
        let candidates: Vec<&Individual> = {
            let feas: Vec<&Individual> =
                self.population.iter().filter(|i| i.is_feasible()).collect();
            if feas.is_empty() {
                // Least-violating fallback.
                let min_v = self
                    .population
                    .iter()
                    .map(|i| i.violation)
                    .fold(f64::INFINITY, f64::min);
                self.population
                    .iter()
                    .filter(|i| i.violation <= min_v)
                    .collect()
            } else {
                feas
            }
        };
        let first = candidates.first()?;
        let m = first.objectives.len();
        let mut ideal = vec![f64::INFINITY; m];
        for c in &candidates {
            for (i, &o) in c.objectives.iter().enumerate() {
                ideal[i] = ideal[i].min(o);
            }
        }
        candidates.into_iter().min_by(|a, b| {
            let da: f64 = a
                .objectives
                .iter()
                .zip(&ideal)
                .map(|(o, i)| (o - i) * (o - i))
                .sum();
            let db: f64 = b
                .objectives
                .iter()
                .zip(&ideal)
                .map(|(o, i)| (o - i) * (o - i))
                .sum();
            da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
        })
    }
}

/// A constraint-repair operator (the paper's tabu search, or a CP-based
/// fixer). The engine relies on two promises:
///
/// * a repair is a pure function of the genome — it reads no RNG and no
///   clock — so the engine repairs each infeasible parent once per
///   generation and reuses the result for every tournament it wins. A
///   deadline-bounded repair (the CP fixer's per-request wall-clock
///   budget) is the one exception: its reused result is the one its first
///   call produced;
/// * a returned evaluation equals `problem.evaluate(genes)` of the genes
///   the repair leaves (within bounds) bit for bit. The engine stores it
///   on the individual and counts it as that individual's evaluation
///   instead of scoring the genome again.
pub trait Repair {
    /// Attempts to make `genes` feasible in place; returns the repaired
    /// genome's evaluation when the repair computed one on the way.
    fn repair(&self, genes: &mut [f64]) -> Option<Evaluation>;
}

/// Blanket impl so closures can serve as repair operators.
impl<F: Fn(&mut [f64]) -> Option<Evaluation>> Repair for F {
    fn repair(&self, genes: &mut [f64]) -> Option<Evaluation> {
        self(genes)
    }
}

/// Repairs `genes` and clamps them to bounds; returns the repair's
/// evaluation, if it handed one over.
fn repair_genes<P: MoeaProblem>(
    problem: &P,
    repair: &dyn Repair,
    genes: &mut [f64],
) -> Option<Evaluation> {
    let eval = repair.repair(genes);
    clamp_genes(problem, genes);
    eval
}

/// An individual carrying `eval` when one is already known.
fn individual(genes: Vec<f64>, eval: Option<Evaluation>) -> Individual {
    let mut ind = Individual::new(genes);
    if let Some(eval) = eval {
        ind.set_evaluation(eval);
    }
    ind
}

/// Scores the individuals nobody scored yet, in index order; returns how
/// many it scored.
fn evaluate_all<P: MoeaProblem>(problem: &P, pop: &mut [Individual]) -> usize {
    let mut scored = 0;
    for ind in pop.iter_mut().filter(|i| !i.is_evaluated()) {
        let e = problem.evaluate(&ind.genes);
        ind.set_evaluation(e);
        scored += 1;
    }
    scored
}

fn random_genome<P: MoeaProblem>(problem: &P, rng: &mut impl Rng) -> Vec<f64> {
    (0..problem.n_vars())
        .map(|i| {
            let (lo, hi) = problem.bounds(i);
            rng.gen_range(lo..hi)
        })
        .collect()
}

fn stats(pop: &[Individual], generation: usize, evaluations: usize) -> GenStats {
    let feasible = pop.iter().filter(|i| i.is_feasible()).count();
    let min_violation = pop
        .iter()
        .map(|i| i.violation)
        .fold(f64::INFINITY, f64::min);
    let best_feasible_total = pop
        .iter()
        .filter(|i| i.is_feasible())
        .map(|i| i.objectives.iter().sum::<f64>())
        .min_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    GenStats {
        generation,
        evaluations,
        feasible,
        min_violation,
        best_feasible_total,
    }
}

/// Runs the configured NSGA variant on `problem`, with an optional repair
/// operator wired per `config.repair_mode` (the paper's Figs. 3–4 pipeline).
pub fn run<P: MoeaProblem>(
    problem: &P,
    config: &NsgaConfig,
    repair: Option<&dyn Repair>,
) -> MoeaResult {
    assert!(config.population_size >= 4, "population too small");
    let variant_label = match config.variant {
        Variant::Nsga2 => "nsga2",
        Variant::Nsga3 => "nsga3",
        Variant::UNsga3 => "unsga3",
    };
    let mut run_span = cpo_obs::span!("moea.run", variant = variant_label);
    let start = Instant::now();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let n = config.population_size;

    // Reference directions for NSGA-III / U-NSGA-III sized to the population.
    let uses_refs = matches!(config.variant, Variant::Nsga3 | Variant::UNsga3);
    let refs = if uses_refs {
        let d = divisions_for(problem.n_objectives(), n);
        das_dennis(problem.n_objectives(), d)
    } else {
        Vec::new()
    };

    let repair_initial = repair.filter(|_| config.repair_mode != RepairMode::Off);
    let repair_parents =
        repair.filter(|_| matches!(config.repair_mode, RepairMode::Parents | RepairMode::Both));
    let repair_offspring =
        repair.filter(|_| matches!(config.repair_mode, RepairMode::Offspring | RepairMode::Both));

    // Initial population: caller-provided warm starts first, random fill
    // after (repaired when a repair operator is active — Fig. 4 treats
    // any invalid individual entering reproduction).
    let mut evaluations = 0usize;
    let mut pop: Vec<Individual> = Vec::with_capacity(n);
    for seed_genes in config.seeds.iter().take(n) {
        assert_eq!(
            seed_genes.len(),
            problem.n_vars(),
            "warm-start genome has wrong arity"
        );
        let mut genes = seed_genes.clone();
        clamp_genes(problem, &mut genes);
        pop.push(Individual::new(genes));
    }
    while pop.len() < n {
        let mut genes = random_genome(problem, &mut rng);
        let eval = repair_initial.and_then(|r| repair_genes(problem, r, &mut genes));
        evaluations += usize::from(eval.is_some());
        pop.push(individual(genes, eval));
    }

    evaluations += evaluate_all(problem, &mut pop);
    let fronts = fast_non_dominated_sort(&mut pop);
    if config.variant == Variant::Nsga2 {
        for f in &fronts {
            assign_crowding_distance(&mut pop, f);
        }
    }

    let mut history = vec![stats(&pop, 0, evaluations)];
    let mut generation = 0usize;

    while evaluations < config.max_evaluations {
        if let Some(deadline) = config.deadline {
            if start.elapsed() >= deadline {
                break;
            }
        }
        generation += 1;
        let mut gen_span = cpo_obs::span!("nsga3.generation", gen = generation as u64);
        let evals_before = evaluations;

        // --- Mating: tournaments, optional parent repair, SBX, PM. ---
        let mut mate_span = cpo_obs::span!("moea.mate");
        let mut offspring: Vec<Individual> = Vec::with_capacity(n);
        let mut offspring_repairs = 0usize;
        // Fig. 4: "if the two selected parents do not respect users
        // constraints, then they are treated by the tabu search". A parent
        // is repaired the first time it wins a tournament in a generation
        // and the result reused after: a repair reads no RNG (see the
        // `Repair` contract), so this is exact.
        let mut repaired_parents: Vec<Option<Vec<f64>>> = vec![None; pop.len()];
        let mut parent_genes = |i: usize| -> Vec<f64> {
            match repair_parents {
                Some(r) if !pop[i].is_feasible() => repaired_parents[i]
                    .get_or_insert_with(|| {
                        let mut genes = pop[i].genes.clone();
                        repair_genes(problem, r, &mut genes);
                        genes
                    })
                    .clone(),
                _ => pop[i].genes.clone(),
            }
        };
        // Method-1 exclusion budget: at most 10× the population of extra
        // attempts per generation, after which infeasible offspring are
        // admitted anyway (otherwise hard instances would never fill a
        // generation — the paper's week-long-run pathology).
        let mut exclusion_budget: usize = if config.repair_mode == RepairMode::Exclude {
            n * 10
        } else {
            0
        };
        while offspring.len() < n {
            let (pa, pb) = match config.variant {
                Variant::Nsga2 => (
                    tournament_nsga2(&pop, &mut rng),
                    tournament_nsga2(&pop, &mut rng),
                ),
                Variant::Nsga3 => (
                    tournament_nsga3(&pop, &mut rng),
                    tournament_nsga3(&pop, &mut rng),
                ),
                Variant::UNsga3 => (
                    tournament_unsga3(&pop, &mut rng),
                    tournament_unsga3(&pop, &mut rng),
                ),
            };
            let g1 = parent_genes(pa);
            let g2 = parent_genes(pb);
            let (mut c1, mut c2) = match config.operators {
                Operators::RealCoded => sbx(problem, config.sbx, &g1, &g2, &mut rng),
                Operators::IntegerStyle => uniform_crossover(config.sbx.rate, &g1, &g2, &mut rng),
            };
            match config.operators {
                Operators::RealCoded => {
                    polynomial_mutation(problem, config.pm, &mut c1, &mut rng);
                    polynomial_mutation(problem, config.pm, &mut c2, &mut rng);
                }
                Operators::IntegerStyle => {
                    reset_mutation(problem, config.pm.rate, &mut c1, &mut rng);
                    reset_mutation(problem, config.pm.rate, &mut c2, &mut rng);
                }
            }
            clamp_genes(problem, &mut c1);
            clamp_genes(problem, &mut c2);
            let (e1, e2) = match repair_offspring {
                Some(r) => {
                    offspring_repairs += 2;
                    (
                        repair_genes(problem, r, &mut c1),
                        repair_genes(problem, r, &mut c2),
                    )
                }
                None => (None, None),
            };
            if config.repair_mode == RepairMode::Exclude && exclusion_budget > 0 {
                // Evaluate the children now and drop the infeasible ones.
                for child in [c1, c2] {
                    if offspring.len() == n {
                        break;
                    }
                    let eval = problem.evaluate(&child);
                    evaluations += 1;
                    if eval.is_feasible() || exclusion_budget == 0 {
                        let mut ind = Individual::new(child);
                        ind.set_evaluation(eval);
                        offspring.push(ind);
                    } else {
                        exclusion_budget -= 1;
                    }
                }
                continue;
            }
            // A repair's evaluation counts as the child's; evaluate_all
            // scores only the children nobody scored yet.
            evaluations += usize::from(e1.is_some());
            offspring.push(individual(c1, e1));
            if offspring.len() < n {
                evaluations += usize::from(e2.is_some());
                offspring.push(individual(c2, e2));
            }
        }
        let parent_repairs = repaired_parents.iter().filter(|g| g.is_some()).count();
        mate_span.field("repairs", parent_repairs + offspring_repairs);
        drop(mate_span);

        {
            let _eval_span = cpo_obs::span!("moea.evaluate");
            evaluations += evaluate_all(problem, &mut offspring);
        }

        // --- Environmental selection on parents ∪ offspring. ---
        let select_span = cpo_obs::span!("moea.select");
        let mut combined = pop;
        combined.append(&mut offspring);
        let fronts = fast_non_dominated_sort(&mut combined);

        let mut survivors: Vec<usize> = Vec::with_capacity(n);
        let mut last_front: Option<Vec<usize>> = None;
        for front in &fronts {
            if survivors.len() + front.len() <= n {
                survivors.extend_from_slice(front);
            } else {
                last_front = Some(front.clone());
                break;
            }
        }
        if let Some(front) = last_front {
            let slots = n - survivors.len();
            match config.variant {
                Variant::Nsga2 => {
                    assign_crowding_distance(&mut combined, &front);
                    let mut ranked = front;
                    ranked.sort_by(|&a, &b| {
                        combined[b]
                            .crowding
                            .partial_cmp(&combined[a].crowding)
                            .unwrap_or(std::cmp::Ordering::Equal)
                    });
                    survivors.extend(ranked.into_iter().take(slots));
                }
                Variant::Nsga3 | Variant::UNsga3 => {
                    let kept =
                        niching_select(&combined, &survivors, &front, slots, &refs, &mut rng);
                    survivors.extend(kept);
                }
            }
        }
        let mut next: Vec<Individual> =
            survivors.into_iter().map(|i| combined[i].clone()).collect();
        // Survivors are whole fronts plus part of the next one, so every
        // dominator of a survivor survives too and its rank in the
        // combined pool is its rank among the survivors. Only NSGA-II
        // re-sorts: its crowding distances are per survivor front.
        if config.variant == Variant::Nsga2 {
            for f in &fast_non_dominated_sort(&mut next) {
                assign_crowding_distance(&mut next, f);
            }
        }
        // U-NSGA-III's mating tournament needs each survivor's niche.
        if config.variant == Variant::UNsga3 && !next.is_empty() {
            let candidates: Vec<usize> = (0..next.len()).collect();
            let normalized = normalize(&next, &candidates);
            for (ind, assoc) in next.iter_mut().zip(associate(&normalized, &refs)) {
                ind.niche = assoc.ref_idx;
                ind.niche_distance = assoc.distance;
            }
        }
        pop = next;
        drop(select_span);
        let gen_stats = stats(&pop, generation, evaluations);
        gen_span
            .field("feasible", gen_stats.feasible)
            .field("evaluations", evaluations);
        cpo_obs::counter_add("moea.evaluations", (evaluations - evals_before) as u64);
        history.push(gen_stats);
    }

    run_span
        .field("generations", generation)
        .field("evaluations", evaluations);
    MoeaResult {
        population: pop,
        evaluations,
        generations: generation,
        history,
        elapsed: start.elapsed(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::test_problems::{ConstrainedSum, Dtlz2, Sch};
    use crate::problem::MoeaProblem;

    /// Repair for [`ConstrainedSum`]: project onto the constraint x + y ≥ 1.
    fn project(genes: &mut [f64]) {
        let s = genes[0] + genes[1];
        if s < 1.0 {
            let deficit = (1.0 - s) / 2.0;
            genes[0] = (genes[0] + deficit).min(1.0);
            genes[1] = (genes[1] + deficit).min(1.0);
        }
    }

    fn small_config(variant: Variant) -> NsgaConfig {
        NsgaConfig {
            population_size: 40,
            max_evaluations: 2_000,
            parallel_eval: false,
            ..NsgaConfig::paper_defaults(variant)
        }
    }

    #[test]
    fn nsga2_converges_on_sch() {
        let result = run(&Sch, &small_config(Variant::Nsga2), None);
        // Pareto front: x in [0,2] → f1+f2 ≤ 4 (min at crossing ~2).
        let front = result.first_front();
        assert!(!front.is_empty());
        for ind in &front {
            let x = ind.genes[0];
            assert!(
                (-0.3..=2.3).contains(&x),
                "front member off the Pareto set: x = {x}"
            );
        }
        assert!(result.evaluations >= 2_000);
    }

    #[test]
    fn nsga3_converges_on_dtlz2_sphere() {
        let p = Dtlz2 { n_vars: 7 };
        let result = run(&p, &small_config(Variant::Nsga3), None);
        let front = result.first_front();
        assert!(!front.is_empty());
        let mean_norm: f64 = front
            .iter()
            .map(|i| i.objectives.iter().map(|f| f * f).sum::<f64>())
            .sum::<f64>()
            / front.len() as f64;
        assert!(
            (0.8..=1.6).contains(&mean_norm),
            "front should approach the unit sphere, mean ||f||² = {mean_norm}"
        );
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let a = run(&Sch, &small_config(Variant::Nsga2), None);
        let b = run(&Sch, &small_config(Variant::Nsga2), None);
        let ga: Vec<f64> = a.population.iter().map(|i| i.genes[0]).collect();
        let gb: Vec<f64> = b.population.iter().map(|i| i.genes[0]).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn different_seeds_differ() {
        let a = run(&Sch, &small_config(Variant::Nsga2), None);
        let b = run(&Sch, &small_config(Variant::Nsga2).with_seed(99), None);
        let ga: Vec<f64> = a.population.iter().map(|i| i.genes[0]).collect();
        let gb: Vec<f64> = b.population.iter().map(|i| i.genes[0]).collect();
        assert_ne!(ga, gb);
    }

    #[test]
    fn repair_offspring_forces_feasibility() {
        let cfg = small_config(Variant::Nsga3).with_repair(RepairMode::Both);
        let result = run(
            &ConstrainedSum,
            &cfg,
            Some(&|g: &mut [f64]| {
                project(g);
                None
            }),
        );
        let feasible = result.population.iter().filter(|i| i.is_feasible()).count();
        assert!(
            feasible >= result.population.len() * 9 / 10,
            "repair should keep ≥90% feasible, got {feasible}/{}",
            result.population.len()
        );
    }

    #[test]
    fn each_infeasible_parent_is_repaired_once_per_generation() {
        // An identity repair that logs its inputs, so infeasible parents
        // stay infeasible and keep winning tournaments. With every gene
        // mutated, no child repeats a logged genome: an input that does is
        // a parent's genes, and a generation's mating ends with its n-th
        // child.
        let log = std::sync::Mutex::new(Vec::<Vec<u64>>::new());
        let logging = |genes: &mut [f64]| -> Option<Evaluation> {
            let bits = genes.iter().map(|g| g.to_bits()).collect();
            log.lock().unwrap().push(bits);
            None
        };
        let mut cfg = small_config(Variant::Nsga3).with_repair(RepairMode::Both);
        cfg.pm.rate = 1.0;
        cfg.max_evaluations = cfg.population_size * 8;
        let n = cfg.population_size;
        let result = run(&ConstrainedSum, &cfg, Some(&logging));
        let log = log.into_inner().unwrap();

        let mut seen: std::collections::HashSet<&Vec<u64>> = log[..n].iter().collect();
        let mut repaired_this_generation = std::collections::HashSet::new();
        let (mut children, mut parent_repairs) = (0, 0);
        for genes in &log[n..] {
            if seen.contains(genes) {
                assert!(
                    repaired_this_generation.insert(genes),
                    "a parent was repaired twice in generation {}",
                    children / n + 1
                );
                parent_repairs += 1;
            } else {
                seen.insert(genes);
                children += 1;
                if children % n == 0 {
                    repaired_this_generation.clear();
                }
            }
        }
        assert_eq!(children, result.generations * n);
        assert!(parent_repairs > 0, "infeasible parents must be repaired");
    }

    #[test]
    fn nsga3_survivors_keep_their_combined_pool_rank() {
        // Without repair, ConstrainedSum keeps feasible and infeasible
        // individuals side by side, and distinct violations make deep
        // fronts. A run stopped after g generations is the first g
        // generations of a longer one, so this checks every generation.
        for variant in [Variant::Nsga3, Variant::UNsga3] {
            let mut cfg = small_config(variant);
            let n = cfg.population_size;
            let (mut deep, mut mixed) = (false, false);
            for generations in 1..=12 {
                cfg.max_evaluations = n * (generations + 1);
                let result = run(&ConstrainedSum, &cfg, None);
                assert_eq!(result.generations, generations);
                let kept: Vec<usize> = result.population.iter().map(|i| i.rank).collect();
                let mut resorted = result.population.clone();
                fast_non_dominated_sort(&mut resorted);
                let fresh: Vec<usize> = resorted.iter().map(|i| i.rank).collect();
                assert_eq!(kept, fresh, "{variant:?}, generation {generations}");
                deep |= kept.iter().any(|&r| r > 1);
                let feasible = result.population.iter().filter(|i| i.is_feasible()).count();
                mixed |= feasible > 0 && feasible < n;
            }
            assert!(
                deep && mixed,
                "{variant:?}: the check must see deep, mixed fronts"
            );
        }
    }

    #[test]
    fn a_repairs_evaluation_is_the_evaluation() {
        let cfg = small_config(Variant::Nsga3).with_repair(RepairMode::Both);
        let unscored = run(
            &ConstrainedSum,
            &cfg,
            Some(&|g: &mut [f64]| {
                project(g);
                None
            }),
        );
        let scored = run(
            &ConstrainedSum,
            &cfg,
            Some(&|g: &mut [f64]| {
                project(g);
                Some(ConstrainedSum.evaluate(g))
            }),
        );
        let bits = |r: &MoeaResult| -> Vec<(Vec<u64>, Vec<u64>, u64, usize)> {
            r.population
                .iter()
                .map(|i| {
                    (
                        i.genes.iter().map(|g| g.to_bits()).collect(),
                        i.objectives.iter().map(|o| o.to_bits()).collect(),
                        i.violation.to_bits(),
                        i.rank,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&unscored), bits(&scored));
        assert_eq!(unscored.history, scored.history);
        assert_eq!(unscored.evaluations, scored.evaluations);
        assert_eq!(unscored.generations, scored.generations);
    }

    #[test]
    fn exclusion_mode_fills_generations_with_feasibles_when_easy() {
        let cfg = small_config(Variant::Nsga2).with_repair(RepairMode::Exclude);
        let result = run(&ConstrainedSum, &cfg, None);
        // On an easy constraint, exclusion yields an (almost) fully
        // feasible population.
        let feasible = result.population.iter().filter(|i| i.is_feasible()).count();
        assert!(
            feasible >= result.population.len() * 9 / 10,
            "exclusion should keep feasibles: {feasible}/{}",
            result.population.len()
        );
        // Discarded evaluations still count against the budget.
        assert!(result.evaluations >= cfg.max_evaluations);
    }

    #[test]
    fn exclusion_mode_terminates_on_hard_instances() {
        // A constraint no random/SBX child will ever satisfy exactly:
        // x + y ≥ 1.999 within [0,1]² is a sliver. The exclusion budget
        // must cap retries so the run still finishes.
        struct Sliver;
        impl MoeaProblem for Sliver {
            fn n_vars(&self) -> usize {
                2
            }
            fn n_objectives(&self) -> usize {
                2
            }
            fn bounds(&self, _: usize) -> (f64, f64) {
                (0.0, 1.0)
            }
            fn evaluate(&self, g: &[f64]) -> crate::problem::Evaluation {
                crate::problem::Evaluation {
                    objectives: vec![g[0], g[1]],
                    violation: (1.999 - (g[0] + g[1])).max(0.0),
                }
            }
        }
        let cfg = NsgaConfig {
            population_size: 16,
            max_evaluations: 800,
            parallel_eval: false,
            repair_mode: RepairMode::Exclude,
            ..NsgaConfig::paper_defaults(Variant::Nsga2)
        };
        let result = run(&Sliver, &cfg, None);
        assert!(
            result.generations >= 1,
            "the run must make progress despite exclusion"
        );
    }

    #[test]
    fn no_repair_leaves_violations_on_hard_start() {
        // Without repair the constrained problem still finds feasibles via
        // constraint domination, but typically later; verify the engine
        // reports violations in the history's early generations.
        let cfg = small_config(Variant::Nsga2);
        let result = run(&ConstrainedSum, &cfg, None);
        assert!(result.history[0].feasible <= result.population.len());
        assert!(result.history.last().unwrap().feasible > 0);
    }

    #[test]
    fn closest_to_ideal_prefers_feasible() {
        let result = run(&ConstrainedSum, &small_config(Variant::Nsga2), None);
        let best = result.closest_to_ideal().expect("population non-empty");
        assert!(best.is_feasible());
        // Ideal-point solutions cluster around the x + y = 1 boundary.
        let s = best.objectives.iter().sum::<f64>();
        assert!(s < 1.3, "near-boundary solution expected, got sum {s}");
    }

    #[test]
    fn deadline_stops_early() {
        let mut cfg = small_config(Variant::Nsga2);
        cfg.max_evaluations = usize::MAX / 2;
        cfg.deadline = Some(Duration::from_millis(50));
        let result = run(&Sch, &cfg, None);
        assert!(result.elapsed < Duration::from_secs(5));
        assert!(result.evaluations < usize::MAX / 2);
    }

    #[test]
    fn warm_start_seeds_enter_the_population() {
        // Seed the known optimum of SCH's f1: x = 0. With a tiny budget
        // the seeded run must already contain near-zero f1 members.
        let mut cfg = small_config(Variant::Nsga2);
        cfg.max_evaluations = cfg.population_size; // initial evaluation only
        cfg.seeds = vec![vec![0.0], vec![2.0]];
        let result = run(&Sch, &cfg, None);
        let best_f1 = result
            .population
            .iter()
            .map(|i| i.objectives[0])
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_f1 < 1e-9,
            "seeded optimum must survive, best f1 = {best_f1}"
        );
    }

    #[test]
    fn warm_start_clamps_out_of_bounds_seeds() {
        let mut cfg = small_config(Variant::Nsga2);
        cfg.max_evaluations = cfg.population_size;
        cfg.seeds = vec![vec![1e9]];
        let result = run(&Sch, &cfg, None);
        assert!(result.population.iter().all(|i| i.genes[0] <= 1e3 + 1e-9));
    }

    #[test]
    #[should_panic(expected = "wrong arity")]
    fn warm_start_rejects_wrong_arity() {
        let mut cfg = small_config(Variant::Nsga2);
        cfg.seeds = vec![vec![0.0, 1.0]];
        let _ = run(&Sch, &cfg, None);
    }

    #[test]
    fn history_tracks_generations() {
        let result = run(&Sch, &small_config(Variant::Nsga2), None);
        assert_eq!(result.history.len(), result.generations + 1);
        assert!(result
            .history
            .windows(2)
            .all(|w| w[0].evaluations < w[1].evaluations));
    }

    #[test]
    fn unsga3_converges_on_dtlz2_sphere() {
        let p = Dtlz2 { n_vars: 7 };
        let result = run(&p, &small_config(Variant::UNsga3), None);
        let front = result.first_front();
        assert!(!front.is_empty());
        let mean_norm: f64 = front
            .iter()
            .map(|i| i.objectives.iter().map(|f| f * f).sum::<f64>())
            .sum::<f64>()
            / front.len() as f64;
        assert!(
            (0.8..=1.6).contains(&mean_norm),
            "U-NSGA-III front should approach the unit sphere, got {mean_norm}"
        );
        // Niches must have been assigned for the mating tournament.
        assert!(result.population.iter().any(|i| i.niche != usize::MAX));
    }

    #[test]
    fn unsga3_is_deterministic() {
        let p = Dtlz2 { n_vars: 7 };
        let a = run(&p, &small_config(Variant::UNsga3), None);
        let b = run(&p, &small_config(Variant::UNsga3), None);
        let ga: Vec<f64> = a.population.iter().map(|i| i.genes[0]).collect();
        let gb: Vec<f64> = b.population.iter().map(|i| i.genes[0]).collect();
        assert_eq!(ga, gb);
    }

    #[test]
    fn integer_style_operators_also_converge() {
        let mut cfg = small_config(Variant::Nsga2);
        cfg.operators = Operators::IntegerStyle;
        let result = run(&Sch, &cfg, None);
        let front = result.first_front();
        assert!(!front.is_empty());
        for ind in &front {
            let x = ind.genes[0];
            assert!((-5.0..=7.0).contains(&x), "front member far off: x = {x}");
        }
    }

    #[test]
    fn table3_defaults_are_exposed() {
        let cfg = NsgaConfig::paper_defaults(Variant::Nsga3);
        assert_eq!(cfg.population_size, 100);
        assert_eq!(cfg.max_evaluations, 10_000);
        assert_eq!(cfg.sbx.rate, 0.70);
        assert_eq!(cfg.sbx.distribution_index, 15.0);
        assert_eq!(cfg.pm.rate, 0.20);
        assert_eq!(cfg.pm.distribution_index, 15.0);
    }
}
