//! Parallel neighborhood scanning for the tabu engine.
//!
//! The exhaustive `n·m` relocation scan (and any explicit candidate
//! list) is partitioned into
//! [`TabuConfig::threads`](crate::search::TabuConfig::threads)
//! **contiguous** chunks of the canonical `(vm, server)` order. Each
//! chunk is scored by a dedicated scan worker — a [`DeltaEvaluator`]
//! drawn from an [`EvaluatorPool`] at search start and held for the
//! whole search — and reduced to the chunk's *first* strictly-best move.
//! The global reduction then walks the chunks **in canonical order**,
//! replacing the running winner only on a strictly better score.
//!
//! ## Reduction rules (why this is bit-identical to the serial scan)
//!
//! The serial scan keeps the first candidate that strictly beats the
//! running best ([`Score::better_than`] is a strict lexicographic
//! comparison), i.e. it selects the **earliest canonical pair among the
//! minimal-score admissible candidates**. Because chunks are contiguous
//! in canonical order and both the per-chunk fold and the cross-chunk
//! fold use the same first-wins strict comparison, the parallel
//! reduction selects exactly that pair. Candidate scores themselves are
//! bit-identical on every worker: each worker's evaluator replays the
//! same committed-move sequence as the serial engine, and
//! [`DeltaEvaluator::peek_relocate`] is a pure function of that state.
//!
//! The per-pair **work** (the `DeltaEvaluator::work` unit) is likewise a
//! pure function of the committed state, so the sum of the workers'
//! scan work equals the serial scan's work exactly — `TabuResult`
//! counters are bit-identical at any thread count, which is what
//! `tests/parallel_search_differential.rs` pins.
//!
//! Physical parallelism comes from the `rayon` `par_iter` over the chunk
//! descriptors; on a single-core host the chunks run serially on one
//! thread (each briefly locking its own uncontended worker mutex) and
//! the result is — by the argument above — still identical.

use crate::list::TabuList;
use crate::search::Score;
use cpo_model::delta::DeltaEvaluator;
use cpo_model::eval_pool::EvaluatorPool;
use cpo_model::prelude::*;
use rayon::prelude::*;
use std::sync::Mutex;

/// A candidate move the scan considers: `(vm, target server, score,
/// accepted-via-aspiration)`.
pub(crate) type Candidate = (VmId, ServerId, Score, bool);

/// The candidate pairs one scan covers, in canonical order.
pub(crate) enum ScanSet<'s> {
    /// The full `n·m` relocation scan, VM-major (no-ops skipped inline).
    Flat {
        /// VM count.
        n: usize,
        /// Server count.
        m: usize,
    },
    /// An explicit candidate list (already canonically ordered by the
    /// generation strategy).
    Pairs(&'s [(VmId, ServerId)]),
}

impl ScanSet<'_> {
    pub(crate) fn len(&self) -> usize {
        match self {
            ScanSet::Flat { n, m } => n * m,
            ScanSet::Pairs(p) => p.len(),
        }
    }

    #[inline]
    pub(crate) fn pair(&self, idx: usize) -> (VmId, ServerId) {
        match self {
            ScanSet::Flat { m, .. } => (VmId(idx / m), ServerId(idx % m)),
            ScanSet::Pairs(p) => p[idx],
        }
    }
}

/// Winner and counters of one scanned chunk.
struct ChunkScan {
    best: Option<Candidate>,
    scanned: usize,
    evals: usize,
    work: u64,
}

/// Aggregated result of one whole scan.
pub(crate) struct ScanOutcome {
    /// The earliest canonical admissible candidate of minimal score.
    pub best: Option<Candidate>,
    /// Candidates actually scored (no-ops excluded).
    pub scanned: usize,
    /// Delta evaluations performed (== `scanned`; kept separate to
    /// mirror the serial engine's counters).
    pub evals: usize,
    /// Model-cell work spent peeking, in the `DeltaEvaluator::work`
    /// unit.
    pub work: u64,
}

/// The per-search team of scan workers: one pooled [`DeltaEvaluator`]
/// per configured thread, kept in lock-step with the search's committed
/// trajectory via [`commit`](Self::commit).
pub(crate) struct ScanWorkers<'p> {
    pool: EvaluatorPool<'p>,
    workers: Vec<Mutex<DeltaEvaluator<'p>>>,
}

impl<'p> ScanWorkers<'p> {
    /// Draws `threads` evaluators holding `start` from a fresh pool.
    pub fn new(problem: &'p AllocationProblem, start: &Assignment, threads: usize) -> Self {
        let pool = EvaluatorPool::new(problem);
        let workers = (0..threads.max(1))
            .map(|_| Mutex::new(pool.checkout(start.clone())))
            .collect();
        Self { pool, workers }
    }

    /// Number of worker slots (== configured threads).
    pub fn len(&self) -> usize {
        self.workers.len()
    }

    /// Replays an accepted move on every worker so the next scan peeks
    /// from the same committed state as the main engine. Runs outside
    /// the measured scan window: sync work is excluded from the
    /// search's `eval_work` so the counter stays bit-identical to the
    /// serial engine's.
    pub fn commit(&self, k: VmId, j: ServerId) {
        for w in &self.workers {
            let mut ev = w.lock().expect("scan worker poisoned");
            ev.apply(k, j);
            ev.clear_history();
        }
    }

    /// Scans `set` against `tabu` and the incumbent `best_score`,
    /// partitioned across the workers; see the module docs for the
    /// reduction rules.
    pub fn scan(&self, set: &ScanSet<'_>, tabu: &TabuList, best_score: Score) -> ScanOutcome {
        let total = set.len();
        let threads = self.workers.len();
        let chunk = total.div_ceil(threads.max(1)).max(1);
        // One descriptor per worker slot: (worker index, chunk bounds).
        let jobs: Vec<(usize, usize, usize)> = (0..threads)
            .map(|wi| {
                let lo = (wi * chunk).min(total);
                let hi = (lo + chunk).min(total);
                (wi, lo, hi)
            })
            .collect();
        let chunks: Vec<ChunkScan> = jobs
            .par_iter()
            .map(|&(wi, lo, hi)| {
                let mut ev = self.workers[wi].lock().expect("scan worker poisoned");
                let w0 = ev.work();
                let mut best: Option<Candidate> = None;
                let mut scanned = 0usize;
                let mut evals = 0usize;
                for idx in lo..hi {
                    let (k, j) = set.pair(idx);
                    if ev.assignment().server_of(k) == Some(j) {
                        continue;
                    }
                    scanned += 1;
                    evals += 1;
                    let is_tabu = tabu.is_tabu(k, j);
                    let s: Score = ev.peek_relocate(k, j).into();
                    let aspirated = is_tabu && s.better_than(&best_score);
                    if is_tabu && !aspirated {
                        continue;
                    }
                    let better = match &best {
                        None => true,
                        Some((_, _, cs, _)) => s.better_than(cs),
                    };
                    if better {
                        best = Some((k, j, s, aspirated));
                    }
                }
                ChunkScan {
                    best,
                    scanned,
                    evals,
                    work: ev.work() - w0,
                }
            })
            .collect();

        // Cross-chunk reduction in canonical (chunk) order: strictly
        // better replaces, ties keep the earlier chunk's winner.
        let mut out = ScanOutcome {
            best: None,
            scanned: 0,
            evals: 0,
            work: 0,
        };
        for c in chunks {
            out.scanned += c.scanned;
            out.evals += c.evals;
            out.work += c.work;
            if let Some(cand) = c.best {
                let better = match &out.best {
                    None => true,
                    Some((_, _, cs, _)) => cand.2.better_than(cs),
                };
                if better {
                    out.best = Some(cand);
                }
            }
        }
        out
    }

    /// Returns every worker evaluator to the pool and hands the pool
    /// back (its `idle()` then equals the worker count — the audit
    /// diagnostic the pool's docs describe).
    pub fn into_pool(self) -> EvaluatorPool<'p> {
        for w in self.workers {
            self.pool
                .checkin(w.into_inner().expect("scan worker poisoned"));
        }
        self.pool
    }
}
