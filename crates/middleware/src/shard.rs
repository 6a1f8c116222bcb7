//! The shard federation: per-shard stage-1 engines and one farm-wide
//! HTM behind a deterministic router.
//!
//! The agent's decision state has two halves that scale differently.
//! Stage 1 — the static index's rankings and the selector walking them —
//! is what a decision touches *across* the farm, so it is partitioned:
//! [`ShardMap`] splits the farm into deterministic contiguous blocks and
//! each block gets its own engine (`ShardEngine`: index, selector and
//! scratch over the block, addressed by shard-local ids), so every
//! ranking and every stage-1 walk is `O(n/S)`, not `O(n)`. Stage 2 — the
//! HTM — is already per server: the paper's agent keeps one trace per
//! server and commits each placement to that server's trace alone
//! (§2.3), and a what-if query reads only the server it names. So the
//! router keeps **one** [`Htm`] for the whole farm, addressed by global
//! ids, and no shard holds any of it.
//!
//! [`AgentRouter`] is the thin layer on top. One decision runs:
//!
//! 1. **Stage 1, scatter**: every shard's selector proposes a shortlist
//!    from its local index — all shards in turn under an exhaustive
//!    selector; pruning selectors walk the shard tree lazily, fanning the
//!    groups over [`cas_sim::pool`] on multi-core hosts (results land in
//!    per-shard scratch slots, so worker count cannot change them).
//! 2. **Merge**: shortlists merge by stage-1 score (ties by global
//!    server id) and truncate to the widest shard's width — under an
//!    exhaustive selector the union is kept untruncated, preserving the
//!    paper's every-solver loop. The merged list is emitted in ascending
//!    global id, the order the heuristics' tie-breaks require.
//! 3. **Stage 2, gather**: the heuristic runs unchanged over a
//!    [`SchedView`] on the farm HTM, one serial query at a time.
//!
//! Commit/retract/complete hooks update the server's trace and send the
//! index update to the owning shard **only**, so re-ranking cost stops
//! scaling with farm size.
//!
//! # Rebalancing
//!
//! Churn drifts the live population of each block; when a block leaves
//! the size band the partition moves ([`AgentRouter::rebalance`]). Only
//! stage 1 is partitioned, so only stage 1 moves: blocks whose
//! boundaries survive keep their engines, and each moved block gets a
//! fresh index built from the per-server ledgers the old indexes hold
//! ([`StaticIndex::with_ledgers`]). The HTM is not touched.
//!
//! # The `S = 1` invariant
//!
//! A federation of one shard is **bit-identical** to the single-agent
//! engine: the block is the whole farm, local ids equal global ids, the
//! merge of one shortlist is that shortlist, and stage 2 queries the
//! same HTM. The differential proptests in this module drive the router
//! against an inline replica of the single-agent decision loop over
//! arbitrary commit/decide/retract/complete interleavings; the lazy
//! merge, the group walk and the incremental rebalance are each diffed
//! against a test-only oracle (the eager merge, the flat walk, the
//! replay-everything rebalance) the same way. With more shards, pruning
//! selectors may legitimately diverge (each shard adapts its own width);
//! an exhaustive selector must not — and that too is asserted end to
//! end.

use cas_core::heuristics::{DecisionMemo, Heuristic, SchedView};
use cas_core::selector::{CandidateSelector, SelectorInput};
use cas_core::{Htm, MemoStats, Prediction, SelectorKind, SyncPolicy};
use cas_platform::{
    CostTable, IndexScoring, LoadReport, PhaseCosts, ProblemId, ServerId, ShardMap, ShardTree,
    StaticIndex, TaskId, TaskInstance,
};
use cas_sim::{prof, RngStream, SimTime};
use std::collections::HashMap;

/// One shard's stage-1 state: the static index and the selector for a
/// contiguous block of the farm, addressed by shard-local server ids
/// (`global = shard start + local`).
struct ShardEngine {
    /// First global server id of this shard's block.
    start: u32,
    index: StaticIndex,
    selector: Box<dyn CandidateSelector>,
    /// Stage-1 scratch: the selector's shortlist, local ids, ascending.
    shortlist: Vec<ServerId>,
    /// Stage-1 scratch: the selector's scored shortlist, local ids.
    scored_local: Vec<(ServerId, f64)>,
    /// Stage-1 scratch: `(score bits, global id)` for the router's merge.
    scored: Vec<(u64, ServerId)>,
}

impl ShardEngine {
    /// An engine over the block starting at global id `start`.
    fn new(start: u32, index: StaticIndex, selector: SelectorKind) -> Self {
        ShardEngine {
            start,
            index,
            selector: selector.build(),
            shortlist: Vec::new(),
            scored_local: Vec::new(),
            scored: Vec::new(),
        }
    }

    /// Runs the shard's stage-1 selector. `admit` speaks global ids; the
    /// shortlist lands in `self.shortlist` (local ids) and, when
    /// `score_for_merge` is set, in `self.scored` as `(score bits,
    /// global id)` pairs for the router's merge.
    fn stage1(
        &mut self,
        problem: ProblemId,
        admit: &(dyn Fn(ServerId) -> bool + Sync),
        score_for_merge: bool,
    ) {
        let ShardEngine {
            start,
            index,
            selector,
            shortlist,
            scored_local,
            scored,
        } = self;
        let start = *start;
        let local_admit = move |s: ServerId| admit(ServerId(s.0 + start));
        let input = || SelectorInput { problem, index };
        if !score_for_merge {
            selector.shortlist(input(), &local_admit, shortlist);
            return;
        }
        // Scores are non-negative finite, so the IEEE-754 bit pattern is
        // an order-preserving sort key (the same trick the index's
        // ranking trees use). Selectors that track scores hand them out
        // directly; the rest fall back to shortlist + index lookups.
        scored.clear();
        scored_local.clear();
        if selector.shortlist_scored(input(), &local_admit, scored_local) {
            for &(local, score) in scored_local.iter() {
                scored.push((score.to_bits(), ServerId(local.0 + start)));
            }
        } else {
            selector.shortlist(input(), &local_admit, shortlist);
            for &local in shortlist.iter() {
                let score = index
                    .score(problem, local)
                    .expect("shortlisted implies solvable");
                scored.push((score.to_bits(), ServerId(local.0 + start)));
            }
        }
    }

    /// The shard's **skyline** for `problem`: the best `(score bits,
    /// global id)` key its stage-1 index currently holds, or `None` when
    /// nothing in the shard solves the problem. Maintained for free by
    /// the same commit/retract/complete hooks that re-rank the index, so
    /// reading it costs one tree-head lookup and no scan. Ignores the
    /// decision's `admit` filter, which only ever *removes* candidates —
    /// the skyline is therefore a valid lower bound on any key the shard
    /// could contribute.
    fn skyline(&self, problem: ProblemId) -> Option<(u64, ServerId)> {
        self.index
            .best_key(problem)
            .map(|(bits, local)| (bits, ServerId(local.0 + self.start)))
    }

    /// Upper bound on the shortlist width this shard can emit for
    /// `problem`: its selector's hard cap, further capped by how many of
    /// its servers solve the problem at all.
    fn width_bound(&self, problem: ProblemId) -> usize {
        let solvable = self.index.solvable_count(problem);
        match self.selector.width_cap() {
            Some(cap) => solvable.min(cap),
            None => solvable,
        }
    }
}

/// Visit/skip counters of the skyline merge (cumulative over the
/// router's lifetime), per level of the shard tree.
///
/// On the **flat** walk (no tree, or a degenerate one-group tree) the
/// group counters stay zero and `shard_visits + shard_skips` equals
/// `decisions × n_shards` — every shard is either walked or provably
/// unable to contribute. On the **group** walk every *group* is either
/// visited or skipped (`group_visits + group_skips = decisions ×
/// n_groups`), and the shard counters cover only the shards *inside
/// visited groups* — a skipped group's members are pruned wholesale
/// without appearing in either shard counter, which is the entire point
/// of the hierarchy.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct SkylineStats {
    /// Federated decisions taken through the lazy merge.
    pub decisions: u64,
    /// Shards whose stage-1 selector actually ran.
    pub shard_visits: u64,
    /// Shards skipped — skyline beyond the cut line, or no solvable
    /// server for the problem — counted only inside visited groups when
    /// the group walk is active.
    pub shard_skips: u64,
    /// Groups whose member shards were walked (group walk only).
    pub group_visits: u64,
    /// Groups pruned wholesale — group skyline beyond the cut line, or
    /// no member shard holds a skyline for the problem.
    pub group_skips: u64,
}

impl SkylineStats {
    /// Fraction of *considered* shard walks avoided, in `[0, 1]` (shards
    /// inside skipped groups are never considered and do not appear).
    pub fn skip_rate(&self) -> f64 {
        let total = self.shard_visits + self.shard_skips;
        if total == 0 {
            0.0
        } else {
            self.shard_skips as f64 / total as f64
        }
    }

    /// Fraction of group walks avoided, in `[0, 1]` (zero off the group
    /// walk).
    pub fn group_skip_rate(&self) -> f64 {
        let total = self.group_visits + self.group_skips;
        if total == 0 {
            0.0
        } else {
            self.group_skips as f64 / total as f64
        }
    }
}

/// One group's cached skyline summary for one problem: the min over its
/// member shards' skylines (the best key anything in the group could
/// contribute) and the max over their width bounds (the widest shortlist
/// anything in the group could emit). `None` skyline means no member
/// holds one — the group is unconditionally skippable for the problem.
#[derive(Debug, Clone, Copy)]
struct GroupKey {
    skyline: Option<(u64, u32)>,
    bound: usize,
}

/// Everything one scheduling decision needs from the world, read-only.
pub struct DecisionInputs<'a> {
    /// Decision time.
    pub now: SimTime,
    /// The task to place.
    pub task: TaskInstance,
    /// The farm-wide cost table (stage 2 speaks global ids).
    pub costs: &'a CostTable,
    /// Per-server load reports, global ids.
    pub reports: &'a [LoadReport],
    /// Per-server admission limits (RAM + swap), MB, global ids.
    pub server_mem: &'a [f64],
    /// Which servers the agent may consider (excludes retry-refused and
    /// known-collapsed servers).
    pub admit: &'a (dyn Fn(ServerId) -> bool + Sync),
}

/// The federated agent: per-shard stage-1 engines and the farm-wide HTM
/// behind the deterministic scatter–merge–gather router described in the
/// module docs.
pub struct AgentRouter {
    map: ShardMap,
    shards: Vec<ShardEngine>,
    /// The farm-wide HTM, addressed by global server ids: one trace per
    /// server, so no shard needs a copy and no rebalance moves it.
    htm: Htm,
    /// `true` runs the full scatter/merge router even with one shard
    /// (`Sharding::Federated`); `false` is the single-agent fast path
    /// (requires exactly one shard).
    federated: bool,
    /// Exhaustive selectors merge by union, without truncation; pruning
    /// selectors take the lazy skyline merge.
    exhaustive: bool,
    /// The two-level shard tree: groups of shards with cached group
    /// skylines, so the lazy walk prunes whole groups before touching a
    /// member shard. Rebuilt whenever the shard count changes; with one
    /// group the walk is flat.
    tree: ShardTree,
    /// Requested shards-per-group fan-out (the tree clamps it).
    group_size: usize,
    /// Per-`(group, problem)` cached [`GroupKey`]s, indexed by
    /// `group × n_problems + problem`; `None` = dirty (a hook touched a
    /// member shard since the last read). Repaired at the next group walk.
    group_cache: Vec<Option<GroupKey>>,
    /// Problems covered by the cost table (the cache stride).
    n_problems: usize,
    /// Parallel stage-1 arm: `None` engages it automatically when the
    /// pool has more than one worker, `Some(b)` forces it on or off
    /// (differential runs must exercise the arm on any host).
    parallel_override: Option<bool>,
    /// Cumulative visit/skip counters of the skyline merge.
    stats: SkylineStats,
    /// Run-wide decision memo lent to each decision's `SchedView`
    /// (dense by *global* server index).
    memo: DecisionMemo,
    /// Reusable prediction storage for commit-path queries
    /// ([`AgentRouter::predict_completion`]): the engine only needs the
    /// completion date, so the perturbation buffer is rewritten in place
    /// instead of allocated per commit.
    pred_scratch: Prediction,
    /// Merge scratch: `(score bits, global id)` across shards. The lazy
    /// merge keeps it sorted ascending so the cut line is an indexed
    /// read.
    merged: Vec<(u64, ServerId)>,
    /// Lazy-merge scratch: `(skyline bits, skyline global id, shard)` —
    /// the visit order.
    order: Vec<(u64, u32, u32)>,
    /// Merge scratch: the final candidate list, ascending global id.
    candidates: Vec<ServerId>,
    /// How the engines were built — needed to rebuild blocks when the
    /// partition changes under churn.
    selector_kind: SelectorKind,
    scoring: IndexScoring,
}

impl AgentRouter {
    /// Builds the agent for a farm described by `costs`. `shards = None`
    /// is the single-agent path; `Some(s)` federates into `s` shards
    /// (clamped so no shard is empty).
    pub fn new(
        costs: &CostTable,
        shards: Option<usize>,
        selector: SelectorKind,
        scoring: IndexScoring,
        sync: SyncPolicy,
    ) -> Self {
        let n = costs.n_servers();
        let (federated, count) = match shards {
            None => (false, 1),
            Some(s) => (true, s),
        };
        let map = ShardMap::new(n, count);
        let shards: Vec<ShardEngine> = (0..map.n_shards())
            .map(|k| {
                let (start, len) = (map.start(k), map.len(k));
                let index = StaticIndex::with_scoring(&costs.restrict(start, len), scoring);
                ShardEngine::new(start, index, selector)
            })
            .collect();
        let tree = ShardTree::new(map.n_shards(), ShardTree::DEFAULT_GROUP_SHARDS);
        let n_problems = costs.n_problems();
        let group_cache = vec![None; tree.n_groups() * n_problems];
        AgentRouter {
            map,
            shards,
            htm: Htm::new(costs.clone(), sync),
            federated,
            exhaustive: selector == SelectorKind::Exhaustive,
            tree,
            group_size: ShardTree::DEFAULT_GROUP_SHARDS,
            group_cache,
            n_problems,
            parallel_override: None,
            stats: SkylineStats::default(),
            memo: DecisionMemo::new(),
            pred_scratch: Prediction::empty(),
            merged: Vec::new(),
            order: Vec::new(),
            candidates: Vec::new(),
            selector_kind: selector,
            scoring,
        }
    }

    /// Overrides the shards-per-group fan-out (default
    /// [`ShardTree::DEFAULT_GROUP_SHARDS`]) and rebuilds the tree. The
    /// tree clamps degenerate values; `0` is treated as `1`, and
    /// `usize::MAX` yields one group — the flat per-shard walk.
    pub fn with_group_size(mut self, group_size: usize) -> Self {
        self.group_size = group_size.max(1);
        self.rebuild_tree();
        self
    }

    /// Forces the parallel stage-1 arm on or off. By default the arm
    /// engages automatically when the worker pool has more than one
    /// worker; the differential runs force it **on** so the arm's
    /// determinism is proven even on single-core hosts (the pool scope
    /// then degenerates to the caller draining every job).
    pub fn with_parallel_stage1(mut self, forced: bool) -> Self {
        self.parallel_override = Some(forced);
        self
    }

    /// Declares that this run's heuristic never reads perturbations, so
    /// drains may truncate at the probe's completion. Sourced from
    /// [`Heuristic::needs_perturbations`] by the engine.
    pub fn with_completion_only(mut self, completion_only: bool) -> Self {
        self.htm.set_completion_only(completion_only);
        self
    }

    /// The farm HTM's stage-2 drain counters: drains run, memo hits,
    /// truncated drains, prefix resumes. A rebalance never touches the
    /// HTM, so they never go backwards.
    pub fn stage2_stats(&self) -> MemoStats {
        self.htm.memo_stats()
    }

    /// The two-level shard tree (degenerate — one group — when the farm
    /// is small enough that the flat walk is used).
    pub fn tree(&self) -> &ShardTree {
        &self.tree
    }

    /// Cumulative skyline visit/skip counters (zero when the lazy merge
    /// never ran: single-agent path or exhaustive selector).
    pub fn skyline_stats(&self) -> SkylineStats {
        self.stats
    }

    /// Rebuilds the tree over the current shard count and invalidates
    /// every cached group key.
    fn rebuild_tree(&mut self) {
        self.tree = ShardTree::new(self.shards.len(), self.group_size);
        self.group_cache.clear();
        self.group_cache
            .resize(self.tree.n_groups() * self.n_problems, None);
    }

    /// Invalidates the cached group keys (every problem) of the group
    /// owning `shard`. Called from every hook that can move a member
    /// shard's skyline or width bound: commit/retract/complete (index
    /// re-ranks, selector stretch feedback), availability flips, and the
    /// post-pick selector observation (adaptive widths react to both
    /// observation hooks, never to running the shortlist itself).
    fn dirty_shard_group(&mut self, shard: usize) {
        let g = self.tree.group_of(shard);
        let base = g * self.n_problems;
        self.group_cache[base..base + self.n_problems].fill(None);
    }

    /// The cached group key for `(g, problem)`, recomputed from the
    /// member shards when dirty: the min over member skylines and the
    /// max over member width bounds. A shard with no solvable server
    /// holds no skyline *and* a zero width bound, so it influences
    /// neither fold.
    fn group_key(&mut self, g: usize, problem: ProblemId) -> GroupKey {
        let slot = g * self.n_problems + problem.0 as usize;
        if let Some(key) = self.group_cache[slot] {
            return key;
        }
        let mut skyline: Option<(u64, u32)> = None;
        let mut bound = 0usize;
        for k in self.tree.members(g) {
            let shard = &self.shards[k];
            if let Some((bits, head)) = shard.skyline(problem) {
                let key = (bits, head.0);
                skyline = Some(match skyline {
                    Some(cur) if cur <= key => cur,
                    _ => key,
                });
                bound = bound.max(shard.width_bound(problem));
            }
        }
        let key = GroupKey { skyline, bound };
        self.group_cache[slot] = Some(key);
        key
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Whether the scatter/merge router path is active (as opposed to
    /// the single-agent fast path).
    pub fn is_federated(&self) -> bool {
        self.federated
    }

    /// The partition.
    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    /// Whether some shard's live-server count lies outside `[max(lo,
    /// 1), hi]` — O(shards), from the counts the indexes keep. While
    /// every block is inside the band, [`ShardMap::rebalanced`] can
    /// neither merge nor split, so a caller may skip its O(n) scan.
    pub(crate) fn live_out_of_band(&self, lo: usize, hi: usize) -> bool {
        let lo = lo.max(1);
        self.shards.iter().any(|shard| {
            let live = shard.index.available_count();
            live < lo || live > hi
        })
    }

    /// The farm-wide HTM: one trace per server, addressed by global id,
    /// whatever the shard count.
    pub fn htm(&self) -> &Htm {
        &self.htm
    }

    /// Mutable variant of [`AgentRouter::htm`] (Gantt recording).
    pub fn htm_mut(&mut self) -> &mut Htm {
        &mut self.htm
    }

    /// Runs one full two-stage decision and reports the pick to the
    /// owning shard's selector. Deterministic: identical inputs produce
    /// identical picks on any host, any worker count.
    pub fn decide(
        &mut self,
        inp: DecisionInputs<'_>,
        heuristic: &mut dyn Heuristic,
        tie_rng: &mut RngStream,
    ) -> Option<ServerId> {
        if !self.federated {
            // Single-agent fast path: shard 0 is the farm; no merge, no
            // translation — byte for byte the pre-federation decision.
            // The shortlist is lent to the view as a slice: the steady
            // state copies nothing per decision.
            let shard = &mut self.shards[0];
            let htm = &mut self.htm;
            {
                let _walk = prof::span(prof::Phase::Stage1Walk);
                shard.stage1(inp.task.problem, inp.admit, false);
            }
            let pick = {
                let _predict = prof::span(prof::Phase::Stage2Predict);
                let mut view = SchedView::new(
                    inp.now,
                    inp.task,
                    shard.shortlist.as_slice(),
                    inp.costs,
                    inp.reports,
                    htm,
                    tie_rng,
                )
                .with_server_mem(inp.server_mem)
                .with_memo(&mut self.memo);
                heuristic.select(&mut view)
            };
            if let Some(s) = pick {
                shard.selector.observe_selection(s);
            }
            return pick;
        }
        let walk = prof::span(prof::Phase::Stage1Walk);

        // Stage 1. Exhaustive selectors run the eager full walk (the
        // every-solver loop must stay exact and keeps the whole union
        // anyway); pruning selectors take the lazy skyline merge.
        let problem = inp.task.problem;
        let admit = inp.admit;
        self.merged.clear();
        self.candidates.clear();
        if self.exhaustive {
            // Eager walk: every shard shortlists from its own index,
            // serially — a pool scope here costs a scope and a boxed job
            // per shard on every decision, and measured no faster.
            for shard in self.shards.iter_mut() {
                shard.stage1(problem, admit, true);
            }
            // The whole union: per-shard shortlists are ascending-local,
            // shards ascending blocks, so concatenation is already
            // ascending global id.
            for shard in &self.shards {
                self.candidates.extend(shard.scored.iter().map(|&(_, s)| s));
            }
        } else {
            // With a real tree (more than one group) the walk goes
            // through the group level — parallel when the pool pays (or
            // a differential run forces the arm), serial otherwise; a
            // degenerate tree takes the flat per-shard walk.
            let grouped = !self.tree.is_empty();
            let parallel = self
                .parallel_override
                .unwrap_or_else(|| cas_sim::pool::global().workers() > 1);
            if grouped && parallel {
                self.parallel_stage1(problem, admit);
            } else if grouped {
                self.tree_stage1(problem, admit);
            } else {
                self.lazy_stage1(problem, admit);
            }
            self.candidates.extend(self.merged.iter().map(|&(_, s)| s));
            self.candidates.sort_unstable();
        }

        drop(walk);
        self.gather(inp, heuristic, tie_rng)
    }

    /// Stage 2 of a federated decision: the heuristic runs over
    /// `self.candidates` on the farm HTM (the list is lent as a slice,
    /// not copied), and the pick is reported to the owning shard's
    /// selector.
    fn gather(
        &mut self,
        inp: DecisionInputs<'_>,
        heuristic: &mut dyn Heuristic,
        tie_rng: &mut RngStream,
    ) -> Option<ServerId> {
        let pick = {
            let _predict = prof::span(prof::Phase::Stage2Predict);
            let mut view = SchedView::new(
                inp.now,
                inp.task,
                self.candidates.as_slice(),
                inp.costs,
                inp.reports,
                &mut self.htm,
                tie_rng,
            )
            .with_server_mem(inp.server_mem)
            .with_memo(&mut self.memo);
            heuristic.select(&mut view)
        };
        if let Some(s) = pick {
            let owner = self.map.owner(s);
            let local = self.map.to_local(owner, s);
            self.shards[owner].selector.observe_selection(local);
            // An adaptive selector may have widened or narrowed: the
            // owner's cached group bound is no longer trustworthy.
            self.dirty_shard_group(owner);
        }
        pick
    }

    /// The lazy skyline merge. Semantically it computes exactly what an
    /// eager scatter-then-truncate computes — the `W`-best `(score bits,
    /// global id)` entries of the union of per-shard shortlists, where
    /// `W` is the widest shard's width — but it visits shards in
    /// ascending skyline order and *skips a shard's selector entirely*
    /// once two facts make its contribution impossible:
    ///
    /// 1. its width bound cannot exceed the widest width already seen
    ///    (so skipping cannot shrink `W`), and
    /// 2. at least `B` already-collected entries beat the shard's
    ///    skyline — its best conceivable key — where `B` is the largest
    ///    width bound of *any* shard, hence `B ≥ W` whatever the
    ///    unvisited shards would have emitted. Every entry the shard
    ///    could contribute then ranks strictly outside the final
    ///    `W`-best cut.
    ///
    /// Both facts are conservative (the skyline ignores `admit`, which
    /// only removes candidates; bounds only overestimate widths), so the
    /// lazy merge is a *pure pruning of the walk, never of the result* —
    /// the proptests prove the picks bit-identical to the test module's
    /// eager-merge oracle. Shards with no solvable server for the problem
    /// skip unconditionally: their shortlist is empty under any filter.
    ///
    /// Leaves `self.merged` holding the final cut, sorted ascending by
    /// `(score bits, global id)`.
    fn lazy_stage1(&mut self, problem: ProblemId, admit: &(dyn Fn(ServerId) -> bool + Sync)) {
        self.stats.decisions += 1;
        self.order.clear();
        let mut bound_cap = 0usize; // B: the largest width any shard could emit
        for (k, shard) in self.shards.iter().enumerate() {
            match shard.skyline(problem) {
                Some((bits, head)) => {
                    self.order.push((bits, head.0, k as u32));
                    bound_cap = bound_cap.max(shard.width_bound(problem));
                }
                None => self.stats.shard_skips += 1,
            }
        }
        // Visit order: ascending skyline key. Unique per shard (the
        // head's global id is part of the key), so the order — and with
        // it every skip decision — is deterministic on any host.
        self.order.sort_unstable();
        let mut widest = 0usize;
        for i in 0..self.order.len() {
            let (bits, head, k) = self.order[i];
            let k = k as usize;
            let bound = self.shards[k].width_bound(problem);
            if bound <= widest
                && self.merged.len() >= bound_cap
                && self.merged[bound_cap - 1] < (bits, ServerId(head))
            {
                self.stats.shard_skips += 1;
                continue;
            }
            self.stats.shard_visits += 1;
            let shard = &mut self.shards[k];
            shard.stage1(problem, admit, true);
            widest = widest.max(shard.scored.len());
            self.merged.extend_from_slice(&shard.scored);
            // Keep the collected entries sorted so the cut line above is
            // an indexed read. The whole vector is at most S × k entries
            // and mostly sorted already; this is noise next to the walks
            // being skipped.
            self.merged.sort_unstable();
        }
        if self.merged.len() > widest {
            self.merged.truncate(widest);
        }
    }

    /// The two-level skyline walk: [`lazy_stage1`](Self::lazy_stage1)
    /// lifted to the shard tree. Groups are visited in ascending *group
    /// skyline* order (the min over member skylines, cached and repaired
    /// lazily), and a whole group is skipped — without reading a single
    /// member shard — when the flat walk's skip condition holds for the
    /// group key:
    ///
    /// 1. the group's width bound (max over members) cannot exceed the
    ///    widest width already seen, and
    /// 2. at least `B` collected entries beat the group skyline, `B`
    ///    being the largest group bound overall.
    ///
    /// Because the group skyline lower-bounds every member skyline and
    /// the group bound upper-bounds every member bound, the group
    /// condition implies the flat condition for **each member** — so the
    /// group walk prunes a superset of nothing the flat walk would keep,
    /// and the merged cut is bit-identical (the proptests prove it
    /// against the flat walk).
    /// Inside a visited group, members run the flat per-shard condition
    /// unchanged.
    fn tree_stage1(&mut self, problem: ProblemId, admit: &(dyn Fn(ServerId) -> bool + Sync)) {
        self.stats.decisions += 1;
        self.order.clear();
        let mut bound_cap = 0usize; // B: the largest width any group could emit
        for g in 0..self.tree.n_groups() {
            let key = self.group_key(g, problem);
            match key.skyline {
                Some((bits, head)) => {
                    self.order.push((bits, head, g as u32));
                    bound_cap = bound_cap.max(key.bound);
                }
                None => self.stats.group_skips += 1,
            }
        }
        // Ascending group-skyline order; the head's global id makes the
        // key unique per group, so the walk is deterministic.
        self.order.sort_unstable();
        let order = std::mem::take(&mut self.order);
        let mut widest = 0usize;
        for &(bits, head, g) in &order {
            let g = g as usize;
            let gbound = self.group_cache[g * self.n_problems + problem.0 as usize]
                .expect("repaired above")
                .bound;
            if gbound <= widest
                && self.merged.len() >= bound_cap
                && self.merged[bound_cap - 1] < (bits, ServerId(head))
            {
                self.stats.group_skips += 1;
                continue;
            }
            self.stats.group_visits += 1;
            for k in self.tree.members(g) {
                let Some((sbits, shead)) = self.shards[k].skyline(problem) else {
                    self.stats.shard_skips += 1;
                    continue;
                };
                let bound = self.shards[k].width_bound(problem);
                if bound <= widest
                    && self.merged.len() >= bound_cap
                    && self.merged[bound_cap - 1] < (sbits, shead)
                {
                    self.stats.shard_skips += 1;
                    continue;
                }
                self.stats.shard_visits += 1;
                let shard = &mut self.shards[k];
                shard.stage1(problem, admit, true);
                widest = widest.max(shard.scored.len());
                self.merged.extend_from_slice(&shard.scored);
                self.merged.sort_unstable();
            }
        }
        self.order = order;
        if self.merged.len() > widest {
            self.merged.truncate(widest);
        }
    }

    /// The parallel stage-1 arm: group-level pruning from the cache
    /// (groups with no skyline skip exactly as in the serial walks),
    /// then an **eager** scatter of every surviving group over
    /// [`cas_sim::pool`] — cut-line pruning needs the merged-so-far
    /// state and is pointless once the walks run concurrently. Each job
    /// owns a disjoint `&mut` block of member shards plus its own count
    /// slot, so worker count cannot reorder anything; the reduction
    /// concatenates per-shard scratch in shard order and keeps the
    /// `W`-best by partial select — the kept *set* equals
    /// sort-then-truncate (keys are unique pairs), which is exactly the
    /// eager merge the serial walks are proven identical to.
    /// Shards with no skyline clear their scratch and skip: their
    /// shortlist is empty under any admit filter.
    fn parallel_stage1(&mut self, problem: ProblemId, admit: &(dyn Fn(ServerId) -> bool + Sync)) {
        self.stats.decisions += 1;
        // Group-level prune, serial: one cached key per group.
        let mut visited: Vec<usize> = Vec::with_capacity(self.tree.n_groups());
        for g in 0..self.tree.n_groups() {
            if self.group_key(g, problem).skyline.is_some() {
                visited.push(g);
            } else {
                self.stats.group_skips += 1;
            }
        }
        self.stats.group_visits += visited.len() as u64;
        // Scatter: one job per visited group, member blocks split into
        // disjoint `&mut` slices (groups are contiguous, ascending).
        let mut counts: Vec<(u64, u64)> = vec![(0, 0); visited.len()];
        {
            let mut jobs: Vec<(&mut [ShardEngine], &mut (u64, u64))> =
                Vec::with_capacity(visited.len());
            let mut shards_rest: &mut [ShardEngine] = &mut self.shards;
            let mut shards_off = 0usize;
            let mut counts_rest: &mut [(u64, u64)] = &mut counts;
            for &g in &visited {
                let members = self.tree.members(g);
                let (_, tail) = shards_rest.split_at_mut(members.start - shards_off);
                let (block, tail) = tail.split_at_mut(members.len());
                shards_rest = tail;
                shards_off = members.end;
                let (slot, tail) = counts_rest.split_first_mut().expect("one slot per job");
                counts_rest = tail;
                jobs.push((block, slot));
            }
            let pool = cas_sim::pool::global();
            pool.scope(|scope| {
                for (block, slot) in jobs {
                    scope.spawn(move || {
                        for shard in block.iter_mut() {
                            if shard.skyline(problem).is_some() {
                                shard.stage1(problem, admit, true);
                                slot.0 += 1;
                            } else {
                                shard.scored.clear();
                                slot.1 += 1;
                            }
                        }
                    });
                }
            });
        }
        // Reduce in slot (= group, = shard) order.
        for &(v, s) in &counts {
            self.stats.shard_visits += v;
            self.stats.shard_skips += s;
        }
        let mut widest = 0usize;
        for &g in &visited {
            for k in self.tree.members(g) {
                let scored = &self.shards[k].scored;
                widest = widest.max(scored.len());
                self.merged.extend_from_slice(scored);
            }
        }
        if self.merged.len() > widest && widest > 0 {
            self.merged.select_nth_unstable(widest - 1);
            self.merged.truncate(widest);
        }
    }

    /// A what-if query outside a decision (the engine records the
    /// commit-time prediction of the winning server).
    pub fn predict(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<Prediction> {
        self.htm.predict(now, server, task)
    }

    /// The commit-path variant of [`AgentRouter::predict`]: the engine
    /// records only the winner's completion date, so the query writes
    /// the router's reusable scratch prediction in place and hands back
    /// the single field — no allocation per commit.
    pub fn predict_completion(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: &TaskInstance,
    ) -> Option<SimTime> {
        self.htm
            .predict_into(now, server, task, &mut self.pred_scratch)
            .then_some(self.pred_scratch.completion)
    }

    /// A commit: the server's HTM trace grows by the task and the owning
    /// shard re-ranks the server — farm size does not appear.
    pub fn on_commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance, work: f64) {
        self.htm.commit(now, server, task);
        let owner = self.map.owner(server);
        let local = self.map.to_local(owner, server);
        self.shards[owner].index.on_commit(local, work);
        self.dirty_shard_group(owner);
    }

    /// A retract (placement undone before running): out of the HTM, and
    /// the owning shard pays the ledger back.
    pub fn on_retract(&mut self, now: SimTime, server: ServerId, task: TaskId, work: f64) {
        self.htm.retract(now, task);
        let owner = self.map.owner(server);
        let local = self.map.to_local(owner, server);
        self.shards[owner].index.on_retract(local, work);
        self.dirty_shard_group(owner);
    }

    /// A completion: HTM synchronisation (per the sync policy), then the
    /// owning shard's index decrement and its selector's stretch
    /// feedback (`observed` vs `predicted` **flow** — durations since
    /// arrival, seconds, so the relative tolerance is age-independent).
    pub fn on_complete(
        &mut self,
        now: SimTime,
        server: ServerId,
        task: TaskId,
        work: f64,
        observed: f64,
        predicted: f64,
    ) {
        let owner = self.map.owner(server);
        let local = self.map.to_local(owner, server);
        let shard = &mut self.shards[owner];
        shard.index.on_complete(local, work);
        self.htm.observe_completion(now, task);
        shard.selector.observe_outcome(observed, predicted);
        self.dirty_shard_group(owner);
    }

    /// Marks `server` up or down in its owning shard's stage-1 index:
    /// down removes it from every ranking (and the skylines — a dead
    /// server can never head a shard's merge order) while its
    /// remaining-work ledger keeps draining, so completions of work
    /// already placed there stay consistent; up re-inserts it at its
    /// current believed load. Returns whether the flag changed
    /// (idempotent otherwise). The decision path additionally excludes
    /// dead servers through `admit`, which is what keeps the exhaustive
    /// selector — which scans the cost table, not the index — exact.
    pub fn set_available(&mut self, server: ServerId, up: bool) -> bool {
        let owner = self.map.owner(server);
        let local = self.map.to_local(owner, server);
        let changed = self.shards[owner].index.set_available(local, up);
        if changed {
            self.dirty_shard_group(owner);
        }
        changed
    }

    /// Shared preconditions of every re-partition.
    fn check_rebalance(&self, costs: &CostTable, new_map: &ShardMap) {
        assert!(self.federated, "rebalance requires the federated router");
        assert_eq!(
            new_map.n_servers(),
            self.map.n_servers(),
            "rebalance cannot change the farm size"
        );
        assert_eq!(
            costs.n_servers(),
            self.map.n_servers(),
            "cost table must span the farm"
        );
    }

    /// Re-partitions the federation to `new_map`. Only stage 1 is
    /// partitioned, so only stage 1 moves: a new shard whose `(start,
    /// len)` block survives from the old map keeps its engine, and every
    /// other block gets a fresh index built from the ledgers the old
    /// indexes hold for its servers ([`StaticIndex::with_ledgers`]) —
    /// ledgers are per server, so they cross a boundary unchanged. The
    /// farm HTM is not touched. Stage-1 selector adaptation restarts
    /// fresh on **every** shard and the decision memo resets, making the
    /// result observably identical to rebuilding every block — the
    /// test-only oracle the rebalance proptests diff it against, bit for
    /// bit. Under the exhaustive selector (whose merge is the
    /// untruncated union) a rebalance is additionally invisible against
    /// a router that *never* rebalanced.
    pub fn rebalance(&mut self, costs: &CostTable, new_map: ShardMap) {
        self.check_rebalance(costs, &new_map);
        let old_map = std::mem::replace(&mut self.map, new_map);
        let mut old: Vec<Option<ShardEngine>> = self.shards.drain(..).map(Some).collect();
        let mut shards = Vec::with_capacity(self.map.n_shards());
        for k in 0..self.map.n_shards() {
            let (start, len) = (self.map.start(k), self.map.len(k));
            let survivor = (0..old_map.n_shards())
                .find(|&j| (old_map.start(j), old_map.len(j)) == (start, len))
                .and_then(|j| old[j].take());
            let engine = match survivor {
                Some(mut e) => {
                    e.selector = self.selector_kind.build();
                    e
                }
                None => {
                    // A moved block overlaps no surviving block (blocks
                    // partition the farm), so every old engine it reads
                    // is still in `old`.
                    let ledgers: Vec<(u32, f64, bool)> = (start..start + len as u32)
                        .map(|s| {
                            let j = old_map.owner(ServerId(s));
                            let index = &old[j].as_ref().expect("not a survivor").index;
                            let local = ServerId(s - old_map.start(j));
                            (
                                index.active(local),
                                index.remaining(local),
                                index.is_available(local),
                            )
                        })
                        .collect();
                    let local_costs = costs.restrict(start, len);
                    let index = StaticIndex::with_ledgers(&local_costs, self.scoring, &ledgers);
                    ShardEngine::new(start, index, self.selector_kind)
                }
            };
            shards.push(engine);
        }
        self.shards = shards;
        self.rebuild_tree();
        self.memo = DecisionMemo::new();
    }

    /// Admits a brand-new server to the running federation: the shard
    /// map grows its **last** block by one, the farm HTM gains a trace
    /// for it ([`Htm::push_server`]) and the last shard's stage-1 index
    /// gains its key through the proven incremental join
    /// ([`StaticIndex::push_server`]) — no engine is rebuilt, no other
    /// shard is touched. The caller must have grown (or grow, before the
    /// next decision) the farm-wide cost table with the **same** column,
    /// since stage 2 reads static costs by global id. Returns the new
    /// global id. The new server joins live, idle and unexcluded — and
    /// with an empty ledger its cached group key is stale, so the
    /// owner's group is dirtied like any other mutation.
    pub fn push_server(&mut self, per_problem: Vec<Option<PhaseCosts>>) -> ServerId {
        let id = self.map.push_server();
        let owner = self.shards.len() - 1;
        let durations: Vec<Option<f64>> =
            per_problem.iter().map(|c| c.map(|pc| pc.total())).collect();
        self.shards[owner].index.push_server(&durations);
        self.htm.push_server(per_problem);
        self.dirty_shard_group(owner);
        id
    }

    /// Simulated completion dates of every committed task.
    pub fn simulated_completions(&self) -> HashMap<TaskId, SimTime> {
        self.htm.simulated_completions()
    }
}

/// Test-only oracles of the router's optimised paths: the eager merge
/// the lazy skyline walk prunes, and the replay-everything rebalance the
/// incremental one reuses blocks and ledgers against. (The flat walk,
/// the group walk's oracle, needs no code here:
/// `with_group_size(usize::MAX)` yields one group.)
#[cfg(test)]
mod oracles {
    use super::*;
    use crate::harness::{DecisionAgent, ModelOp};

    /// A router whose pruning-selector decisions take the eager merge:
    /// every shard shortlists, and the union is cut to the widest shard's
    /// width by `(score bits, global id)`. Exhaustive decisions are the
    /// production path already (the untruncated union).
    pub(super) struct EagerMerge(pub(super) AgentRouter);

    impl EagerMerge {
        fn decide_eager(
            &mut self,
            inp: DecisionInputs<'_>,
            heuristic: &mut dyn Heuristic,
            tie_rng: &mut RngStream,
        ) -> Option<ServerId> {
            let router = &mut self.0;
            if router.exhaustive || !router.federated {
                return router.decide(inp, heuristic, tie_rng);
            }
            router.merged.clear();
            router.candidates.clear();
            let mut widest = 0;
            for shard in router.shards.iter_mut() {
                shard.stage1(inp.task.problem, inp.admit, true);
                widest = widest.max(shard.scored.len());
                router.merged.extend_from_slice(&shard.scored);
            }
            router.merged.sort_unstable();
            router.merged.truncate(widest);
            router
                .candidates
                .extend(router.merged.iter().map(|&(_, s)| s));
            router.candidates.sort_unstable();
            router.gather(inp, heuristic, tie_rng)
        }
    }

    impl DecisionAgent for EagerMerge {
        fn decide(
            &mut self,
            inp: DecisionInputs<'_>,
            heuristic: &mut dyn Heuristic,
            tie_rng: &mut RngStream,
        ) -> Option<(ServerId, Prediction)> {
            let (now, task) = (inp.now, inp.task);
            let pick = self.decide_eager(inp, heuristic, tie_rng)?;
            let p = self
                .0
                .predict(now, pick, &task)
                .expect("picked server is solvable");
            Some((pick, p))
        }

        fn commit(&mut self, now: SimTime, server: ServerId, task: &TaskInstance, work: f64) {
            self.0.on_commit(now, server, task, work);
        }

        fn retract(&mut self, now: SimTime, server: ServerId, task: TaskId, work: f64) {
            self.0.on_retract(now, server, task, work);
        }

        fn complete(
            &mut self,
            now: SimTime,
            server: ServerId,
            task: TaskId,
            work: f64,
            observed: f64,
            predicted: f64,
        ) {
            self.0
                .on_complete(now, server, task, work, observed, predicted);
        }

        fn completions(&self) -> HashMap<TaskId, SimTime> {
            self.0.simulated_completions()
        }

        fn set_available(&mut self, server: ServerId, up: bool) {
            self.0.set_available(server, up);
        }
    }

    impl AgentRouter {
        /// The oracle of [`AgentRouter::rebalance`]: rebuilds **every**
        /// block from scratch by replaying `log` — every index op since
        /// the router was built, in order — filtered to the block's
        /// servers, reusing nothing. Only index ops replay: a rebalance
        /// does not touch the farm HTM.
        pub(super) fn rebalance_full(
            &mut self,
            costs: &CostTable,
            new_map: ShardMap,
            log: &[ModelOp],
        ) {
            self.check_rebalance(costs, &new_map);
            self.shards = (0..new_map.n_shards())
                .map(|k| {
                    let (start, len) = (new_map.start(k), new_map.len(k));
                    let mut index =
                        StaticIndex::with_scoring(&costs.restrict(start, len), self.scoring);
                    for &op in log {
                        let Some(l) = op.server().0.checked_sub(start).map(ServerId) else {
                            continue;
                        };
                        if l.index() >= len {
                            continue;
                        }
                        match op {
                            ModelOp::Commit { work, .. } => index.on_commit(l, work),
                            ModelOp::Retract { work, .. } => index.on_retract(l, work),
                            ModelOp::Complete { work, .. } => index.on_complete(l, work),
                            ModelOp::Available { up, .. } => {
                                index.set_available(l, up);
                            }
                        }
                    }
                    ShardEngine::new(start, index, self.selector_kind)
                })
                .collect();
            self.map = new_map;
            self.rebuild_tree();
            self.memo = DecisionMemo::new();
        }
    }
}

#[cfg(test)]
mod skyline_edge {
    //! Edge cases of the skyline maintenance and the lazy merge, pinned
    //! as fixed fixtures (the proptests cover the space; these document
    //! the corners by name).

    use super::oracles::EagerMerge;
    use super::*;
    use crate::harness::{DiffHarness, Op, SingleAgentReference};
    use cas_platform::{PhaseCosts, Problem};

    /// 6 servers in 3 shards of 2. P0 solvable everywhere with distinct
    /// costs (10, 11, …, 15 — shard 0 holds the global best); P1
    /// solvable only inside shard 0's block.
    fn edge_table() -> CostTable {
        let mut costs = CostTable::new(6);
        costs.add_problem(
            Problem::new("p0", 0.0, 0.0, 0.0),
            (0..6)
                .map(|s| Some(PhaseCosts::new(0.0, 10.0 + s as f64, 0.0)))
                .collect(),
        );
        costs.add_problem(
            Problem::new("p1", 0.0, 0.0, 0.0),
            (0..6)
                .map(|s| (s < 2).then(|| PhaseCosts::new(0.0, 20.0 + s as f64, 0.0)))
                .collect(),
        );
        costs
    }

    fn routers(table: &CostTable, selector: SelectorKind) -> (EagerMerge, AgentRouter) {
        let eager = EagerMerge(AgentRouter::new(
            table,
            Some(3),
            selector,
            IndexScoring::default(),
            SyncPolicy::None,
        ));
        let lazy = AgentRouter::new(
            table,
            Some(3),
            selector,
            IndexScoring::default(),
            SyncPolicy::None,
        );
        (eager, lazy)
    }

    /// Decision ops only (kind 0 = HMCT), alternating the two problems.
    fn decide_ops(n: usize) -> Vec<Op> {
        (0..n)
            .map(|i| Op {
                kind: 0,
                server: 0,
                problem: (i % 2) as u32,
                gap: 1.0,
                // Excluded id beyond the farm: admit everything.
                excl: 99,
            })
            .collect()
    }

    /// A rebalance moves stage 1 only: with every block boundary
    /// changed, the farm HTM keeps its drain depth and every committed
    /// task, and the rebuilt indexes carry each server's ledger across
    /// the new boundaries.
    #[test]
    fn rebuilt_blocks_keep_stage2_settings() {
        let table = edge_table();
        let mut router = AgentRouter::new(
            &table,
            Some(3),
            SelectorKind::Exhaustive,
            IndexScoring::default(),
            SyncPolicy::None,
        )
        .with_completion_only(true);
        for i in 0..4u64 {
            let task = TaskInstance::new(TaskId(i), ProblemId(0), SimTime::from_secs(i as f64));
            router.on_commit(
                task.arrival,
                ServerId((i % 6) as u32),
                &task,
                10.0 + i as f64,
            );
        }
        // 3 shards of 2 → 2 shards of 3: every block boundary changes, so
        // every block is rebuilt from the old ledgers.
        router.rebalance(&table, ShardMap::new(6, 2));
        assert_eq!(router.n_shards(), 2);
        assert!(router.htm().completion_only());
        assert_eq!(router.simulated_completions().len(), 4);
        let ledger = |s: u32| {
            let k = router.map.owner(ServerId(s));
            let index = &router.shards[k].index;
            let local = router.map.to_local(k, ServerId(s));
            (index.active(local), index.remaining(local))
        };
        for s in 0..6u32 {
            let want = if s < 4 {
                (1, 10.0 + s as f64)
            } else {
                (0, 0.0)
            };
            assert_eq!(ledger(s), want, "server {s}");
        }
    }

    /// A rebalance drops the engines whose blocks changed but never
    /// touches the farm HTM, so [`AgentRouter::stage2_stats`] reads the
    /// same counters before and after it.
    #[test]
    fn stage2_stats_never_decrease_across_rebalance() {
        let table = edge_table();
        let mut router = AgentRouter::new(
            &table,
            Some(3),
            SelectorKind::TopK { k: 2 },
            IndexScoring::default(),
            SyncPolicy::None,
        )
        .with_completion_only(true);
        for i in 0..6u64 {
            let now = SimTime::from_secs(i as f64);
            let task = TaskInstance::new(TaskId(i), ProblemId(0), now);
            let server = ServerId((i % 6) as u32);
            // Probes at several instants make the drain counters live.
            for s in 0..6 {
                let probe = TaskInstance::new(TaskId(100 + i), ProblemId(0), now);
                router.predict(now, ServerId(s), &probe);
            }
            router.predict(now, server, &task);
            router.on_commit(now, server, &task, 10.0);
        }
        let before = router.stage2_stats();
        assert!(before.drains > 0 && before.prefix_hits > 0, "{before:?}");
        router.rebalance(&table, ShardMap::new(6, 2));
        assert_eq!(router.stage2_stats(), before);
    }

    /// A problem with zero solvable servers in a shard: the shard has no
    /// skyline for it and is skipped without its selector ever running —
    /// and the decisions still match the eager merge exactly.
    #[test]
    fn zero_solvable_shard_is_skipped_without_a_walk() {
        let table = edge_table();
        let harness = DiffHarness::new(table.clone());
        let (mut eager, mut lazy) = routers(&table, SelectorKind::TopK { k: 2 });
        // Only-P1 decisions: shards 1 and 2 hold no P1 solver.
        let ops: Vec<Op> = (0..4)
            .map(|i| Op {
                kind: 0,
                server: 0,
                problem: 1,
                gap: i as f64,
                excl: 99,
            })
            .collect();
        harness.run(&mut eager, &mut lazy, &ops).unwrap();
        let stats = lazy.skyline_stats();
        assert_eq!(stats.decisions, 4);
        assert_eq!(stats.shard_visits, 4, "only shard 0 is ever walked");
        assert_eq!(stats.shard_skips, 8, "shards 1 and 2 skip every time");
        assert_eq!(stats.skip_rate(), 8.0 / 12.0);
    }

    /// The skyline goes stale (the shard's head server takes a heavy
    /// commit) and is repaired by the retract — both transitions visible
    /// through `best_key`, with the lazy merge agreeing with the eager
    /// one before, during and after.
    #[test]
    fn skyline_stale_then_repaired_across_retract() {
        let table = edge_table();
        let harness = DiffHarness::new(table.clone());
        let (mut eager, mut lazy) = routers(&table, SelectorKind::TopK { k: 1 });
        let p0 = ProblemId(0);
        let head_before = lazy.shards[0].skyline(p0).expect("P0 solvable");
        assert_eq!(head_before.1, ServerId(0), "static best is server 0");
        // decide → commit (heavy, lands on server 0 via op.server) →
        // decide → retract → decide.
        let ops = [
            Op {
                kind: 0,
                server: 0,
                problem: 0,
                gap: 1.0,
                excl: 99,
            },
            Op {
                kind: 6,
                server: 0,
                problem: 0,
                gap: 1.0,
                excl: 99,
            },
            Op {
                kind: 0,
                server: 0,
                problem: 0,
                gap: 1.0,
                excl: 99,
            },
            Op {
                kind: 8,
                server: 0,
                problem: 0,
                gap: 1.0,
                excl: 99,
            },
            Op {
                kind: 0,
                server: 0,
                problem: 0,
                gap: 1.0,
                excl: 99,
            },
        ];
        // One resumable session so the skyline can be inspected between
        // instalments without resetting the clock or the commit ledger.
        let mut session = harness.session();
        session.run(&mut eager, &mut lazy, &ops[..2]).unwrap();
        let stale = lazy.shards[0].skyline(p0).expect("still solvable");
        assert_ne!(stale, head_before, "commit must move the skyline");
        assert_eq!(stale.1, ServerId(1), "server 0 now carries backlog");
        session.run(&mut eager, &mut lazy, &ops[2..4]).unwrap();
        let repaired = lazy.shards[0].skyline(p0).expect("still solvable");
        assert_eq!(repaired, head_before, "retract must repair the skyline");
        session.run(&mut eager, &mut lazy, &ops[4..]).unwrap();
        session.finish(&mut eager, &mut lazy).unwrap();
    }

    /// All shards tied on the stage-1 score: the global-id tiebreak must
    /// match the eager merge (the skyline key carries the head's global
    /// id precisely so ties order deterministically).
    #[test]
    fn all_shards_tied_tiebreak_by_global_id() {
        let mut costs = CostTable::new(6);
        costs.add_problem(
            Problem::new("flat", 0.0, 0.0, 0.0),
            (0..6)
                .map(|_| Some(PhaseCosts::new(0.0, 10.0, 0.0)))
                .collect(),
        );
        let harness = DiffHarness::new(costs.clone());
        let (mut eager, mut lazy) = routers(&costs, SelectorKind::TopK { k: 2 });
        let mut ops = decide_ops(6);
        for op in &mut ops {
            op.problem = 0;
        }
        // Interleave commits so ties keep reforming under load.
        ops.insert(
            2,
            Op {
                kind: 6,
                server: 3,
                problem: 0,
                gap: 0.5,
                excl: 99,
            },
        );
        ops.insert(
            5,
            Op {
                kind: 9,
                server: 0,
                problem: 0,
                gap: 0.5,
                excl: 99,
            },
        );
        harness.run(&mut eager, &mut lazy, &ops).unwrap();
        let stats = lazy.skyline_stats();
        // On the all-tied first decision, shard 0's two entries (ids 0,
        // 1) beat both other skylines (ids 2, 4) on the id tiebreak:
        // shards 1 and 2 are skipped, exactly as the eager merge's
        // (score, id) truncation demands.
        assert!(stats.shard_skips > 0, "ties must still allow skipping");
    }

    /// Width-1 shortlists: with `TopK(1)` the cut line is the single
    /// best entry, and every shard whose skyline cannot beat it skips.
    #[test]
    fn width_one_shortlists_skip_all_but_the_best_shard() {
        let table = edge_table();
        let harness = DiffHarness::new(table.clone());
        let (mut eager, mut lazy) = routers(&table, SelectorKind::TopK { k: 1 });
        let ops: Vec<Op> = (0..3)
            .map(|i| Op {
                kind: 0,
                server: 0,
                problem: 0,
                gap: i as f64,
                excl: 99,
            })
            .collect();
        harness.run(&mut eager, &mut lazy, &ops).unwrap();
        let stats = lazy.skyline_stats();
        assert_eq!(stats.decisions, 3);
        // Static costs ascend with the id: shard 0's head (cost 10)
        // beats shards 1 (12) and 2 (14) before any load lands.
        assert_eq!(stats.shard_visits, 3, "only the best shard is walked");
        assert_eq!(stats.shard_skips, 6);
    }

    /// Downing every solver in a shard erases its skyline for that
    /// problem — the lazy merge then skips it unconditionally — and
    /// repairing one server restores it.
    #[test]
    fn crash_drops_shard_skyline_and_repair_restores_it() {
        let table = edge_table();
        let (_, mut lazy) = routers(&table, SelectorKind::TopK { k: 2 });
        let p1 = ProblemId(1);
        assert!(lazy.shards[0].skyline(p1).is_some(), "P1 lives in shard 0");
        assert!(lazy.set_available(ServerId(0), false));
        assert!(lazy.set_available(ServerId(1), false));
        assert!(
            lazy.shards[0].skyline(p1).is_none(),
            "both P1 solvers down: no skyline"
        );
        assert!(!lazy.set_available(ServerId(1), false), "idempotent");
        assert!(lazy.set_available(ServerId(1), true));
        assert_eq!(
            lazy.shards[0].skyline(p1).map(|(_, s)| s),
            Some(ServerId(1)),
            "repair restores the shard's head"
        );
    }

    /// A group whose **every** member shard has zero solvable servers
    /// for the problem holds no group skyline and is pruned wholesale:
    /// its members never appear in the shard counters. With fan-out 1
    /// (groups ≡ shards) on the edge table's P1 — solvable only inside
    /// shard 0 — groups 1 and 2 skip every decision at the group level,
    /// and shard 0, alone inside its visited group, is walked with no
    /// shard-level skip at all. Both the serial group walk and the
    /// forced parallel arm agree with the eager merge.
    #[test]
    fn zero_solvable_group_is_pruned_without_touching_members() {
        let table = edge_table();
        let p1_ops: Vec<Op> = (0..4)
            .map(|i| Op {
                kind: 0,
                server: 0,
                problem: 1,
                gap: i as f64,
                excl: 99,
            })
            .collect();
        for parallel in [false, true] {
            let harness = DiffHarness::new(table.clone());
            let (mut eager, lazy) = routers(&table, SelectorKind::TopK { k: 2 });
            let mut tree = lazy.with_group_size(1).with_parallel_stage1(parallel);
            assert_eq!(tree.tree().n_groups(), 3);
            harness.run(&mut eager, &mut tree, &p1_ops).unwrap();
            let stats = tree.skyline_stats();
            assert_eq!(stats.decisions, 4);
            assert_eq!(stats.group_visits, 4, "only shard 0's group is walked");
            assert_eq!(stats.group_skips, 8, "groups 1 and 2 prune wholesale");
            assert_eq!(stats.shard_visits, 4);
            assert_eq!(
                stats.shard_skips, 0,
                "members of skipped groups never reach the shard counters"
            );
            assert_eq!(stats.group_skip_rate(), 8.0 / 12.0);
        }
    }

    /// Provisioning through the router (`push_server` into the last
    /// shard) is bit-identical to a router *built* over the grown table:
    /// with one shard the partitions coincide exactly, so the S = 1
    /// invariant extends to mid-life joins for a pruning selector.
    #[test]
    fn provision_single_shard_matches_fresh_build() {
        let table = edge_table();
        let column = vec![Some(PhaseCosts::new(0.0, 9.0, 0.0)), None];
        let mut grown = table.clone();
        assert_eq!(grown.push_server(column.clone()), ServerId(6));
        let scoring = IndexScoring::default();
        let mut fresh = AgentRouter::new(
            &grown,
            Some(1),
            SelectorKind::TopK { k: 2 },
            scoring,
            SyncPolicy::None,
        );
        let mut joined = AgentRouter::new(
            &table,
            Some(1),
            SelectorKind::TopK { k: 2 },
            scoring,
            SyncPolicy::None,
        );
        assert_eq!(joined.push_server(column), ServerId(6));
        assert_eq!(joined.map().n_servers(), 7);
        // The new server (static P0 cost 9) must immediately head the
        // skyline — it beats every incumbent (costs 10..15).
        assert_eq!(
            joined.shards[0].skyline(ProblemId(0)).map(|(_, s)| s),
            Some(ServerId(6))
        );
        let harness = DiffHarness::new(grown);
        let ops: Vec<Op> = (0..6)
            .map(|i| Op {
                kind: (i % 3) as u32 * 3, // decide / decide / commit mix
                server: 6,
                problem: 0,
                gap: 1.0,
                excl: 99,
            })
            .collect();
        harness.run(&mut fresh, &mut joined, &ops).unwrap();
    }

    /// Provisioning under the exhaustive selector is
    /// partition-invisible: the joined router's last block grew (blocks
    /// 2+2+3) while a fresh build re-balances (3+2+2), yet the
    /// untruncated union merge makes both bit-identical to the
    /// single-agent reference over the grown farm.
    #[test]
    fn provision_under_exhaustive_is_partition_invisible() {
        let table = edge_table();
        let column = vec![
            Some(PhaseCosts::new(0.0, 9.0, 0.0)),
            Some(PhaseCosts::new(0.0, 19.0, 0.0)),
        ];
        let mut grown = table.clone();
        grown.push_server(column.clone());
        let scoring = IndexScoring::default();
        let mut reference =
            SingleAgentReference::new(&grown, SelectorKind::Exhaustive, SyncPolicy::None);
        let mut joined = AgentRouter::new(
            &table,
            Some(3),
            SelectorKind::Exhaustive,
            scoring,
            SyncPolicy::None,
        );
        joined.push_server(column);
        let harness = DiffHarness::new(grown);
        let mut ops = decide_ops(6);
        ops.insert(
            2,
            Op {
                kind: 6,
                server: 6,
                problem: 0,
                gap: 0.5,
                excl: 99,
            },
        );
        ops.push(Op {
            kind: 8,
            server: 6,
            problem: 0,
            gap: 0.5,
            excl: 99,
        });
        harness.run(&mut reference, &mut joined, &ops).unwrap();
    }

    /// The single-agent fast path and exhaustive selectors never enter
    /// the lazy merge: their stats stay zero.
    #[test]
    fn skyline_stats_stay_zero_off_the_lazy_path() {
        let table = edge_table();
        let harness = DiffHarness::new(table.clone());
        // Exhaustive federated: full union semantics, no skyline.
        let scoring = IndexScoring::default();
        let mut a = AgentRouter::new(
            &table,
            Some(3),
            SelectorKind::Exhaustive,
            scoring,
            SyncPolicy::None,
        );
        let mut b = EagerMerge(AgentRouter::new(
            &table,
            Some(3),
            SelectorKind::Exhaustive,
            scoring,
            SyncPolicy::None,
        ));
        harness.run(&mut a, &mut b, &decide_ops(4)).unwrap();
        assert_eq!(a.skyline_stats(), SkylineStats::default());
        // Single-agent fast path.
        let mut single = AgentRouter::new(
            &table,
            None,
            SelectorKind::TopK { k: 2 },
            scoring,
            SyncPolicy::None,
        );
        let mut single_b = AgentRouter::new(
            &table,
            None,
            SelectorKind::TopK { k: 2 },
            scoring,
            SyncPolicy::None,
        );
        harness
            .run(&mut single, &mut single_b, &decide_ops(4))
            .unwrap();
        assert_eq!(single.skyline_stats(), SkylineStats::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::oracles::EagerMerge;
    use super::*;
    use crate::harness::{DiffHarness, Op, SingleAgentReference};
    use cas_platform::PhaseCosts;
    use proptest::prelude::*;

    const N_SERVERS: usize = 6;
    /// Farm width of the skyline differential: big enough that
    /// `S = 16` is a real federation, not a clamp.
    const N_SERVERS_WIDE: usize = 18;
    /// Farm width of the tree differential: big enough that `S = 64` is
    /// a real federation and small group sizes give a deep tree.
    const N_SERVERS_HUGE: usize = 72;
    const N_PROBLEMS: usize = 2;

    /// An [`Op`] as the strategies generate it.
    type RawOp = (u32, u32, u32, f64, u32);

    /// `n_servers`-wide table; server 0 always solves everything so no
    /// problem is globally unsolvable, the rest follow `solvable`.
    fn build_table(n_servers: usize, costs: &[PhaseCosts], solvable: &[bool]) -> CostTable {
        let mut table = CostTable::new(n_servers);
        for p in 0..N_PROBLEMS {
            let row = (0..n_servers)
                .map(|s| {
                    let k = p * n_servers + s;
                    (s == 0 || solvable[k]).then_some(costs[k])
                })
                .collect();
            table.add_problem(
                cas_platform::Problem::new(format!("p{p}"), 0.1, 0.1, 64.0),
                row,
            );
        }
        table
    }

    fn selector_of(pick: usize) -> SelectorKind {
        [
            SelectorKind::Exhaustive,
            SelectorKind::TopK { k: 2 },
            SelectorKind::TopK { k: 64 },
            SelectorKind::Adaptive { k_min: 1, k_max: 3 },
        ][pick]
    }

    /// Drives the router decision-by-decision against the inline
    /// single-agent reference (the harness's oracle) over
    /// arbitrary interleavings of decide / commit / retract / complete:
    /// picks and winning predictions must agree **bit for bit**.
    fn run_reference_differential(
        n_servers: usize,
        costs: Vec<PhaseCosts>,
        solvable: Vec<bool>,
        n_shards: usize,
        selector: SelectorKind,
        sync: SyncPolicy,
        ops: Vec<(u32, u32, u32, f64, u32)>,
    ) -> Result<(), TestCaseError> {
        let table = build_table(n_servers, &costs, &solvable);
        let harness = DiffHarness::new(table.clone());
        let mut reference = SingleAgentReference::new(&table, selector, sync);
        let mut router = AgentRouter::new(
            &table,
            Some(n_shards),
            selector,
            IndexScoring::default(),
            sync,
        );
        prop_assert_eq!(router.n_shards(), n_shards);
        prop_assert!(router.is_federated());
        let ops: Vec<Op> = ops.into_iter().map(Op::from).collect();
        if let Err(e) = harness.run(&mut reference, &mut router, &ops) {
            return Err(TestCaseError::fail(e));
        }
        Ok(())
    }

    /// Drives the skyline-merged router against the eager-merge oracle:
    /// the lazy merge must be a pure pruning of the *walk*, never of the
    /// result.
    fn run_skyline_differential(
        n_servers: usize,
        costs: Vec<PhaseCosts>,
        solvable: Vec<bool>,
        n_shards: usize,
        selector: SelectorKind,
        sync: SyncPolicy,
        ops: Vec<(u32, u32, u32, f64, u32)>,
    ) -> Result<(), TestCaseError> {
        let table = build_table(n_servers, &costs, &solvable);
        let harness = DiffHarness::new(table.clone());
        let scoring = IndexScoring::default();
        let mut eager = EagerMerge(AgentRouter::new(
            &table,
            Some(n_shards),
            selector,
            scoring,
            sync,
        ));
        let mut lazy = AgentRouter::new(&table, Some(n_shards), selector, scoring, sync);
        let ops: Vec<Op> = ops.into_iter().map(Op::from).collect();
        if let Err(e) = harness.run(&mut eager, &mut lazy, &ops) {
            return Err(TestCaseError::fail(e));
        }
        // The eager arm never enters the lazy merge; the lazy arm
        // accounts for every shard on every pruned decision.
        prop_assert_eq!(eager.0.skyline_stats(), SkylineStats::default());
        let stats = lazy.skyline_stats();
        prop_assert_eq!(
            stats.shard_visits + stats.shard_skips,
            stats.decisions * n_shards as u64
        );
        Ok(())
    }

    /// Drives the group-walking router (and, when `parallel`, the
    /// forced parallel stage-1 arm) against the flat per-shard walk
    /// (`with_group_size(usize::MAX)`: one group): the group level must
    /// be a pure pruning of the *walk*, never of the result. Also pins
    /// the per-level counter invariants of [`SkylineStats`].
    #[allow(clippy::too_many_arguments)]
    fn run_tree_differential(
        n_servers: usize,
        costs: Vec<PhaseCosts>,
        solvable: Vec<bool>,
        n_shards: usize,
        group_size: usize,
        selector: SelectorKind,
        sync: SyncPolicy,
        ops: Vec<(u32, u32, u32, f64, u32)>,
        parallel: bool,
    ) -> Result<(), TestCaseError> {
        let table = build_table(n_servers, &costs, &solvable);
        let harness = DiffHarness::new(table.clone());
        let scoring = IndexScoring::default();
        let mut flat = AgentRouter::new(&table, Some(n_shards), selector, scoring, sync)
            .with_group_size(usize::MAX)
            .with_parallel_stage1(false);
        let mut tree = AgentRouter::new(&table, Some(n_shards), selector, scoring, sync)
            .with_group_size(group_size)
            .with_parallel_stage1(parallel);
        let n_shards = flat.n_shards() as u64; // post-clamp
        let n_groups = tree.tree().n_groups() as u64;
        let grouped = !tree.tree().is_empty();
        let ops: Vec<Op> = ops.into_iter().map(Op::from).collect();
        if let Err(e) = harness.run(&mut flat, &mut tree, &ops) {
            return Err(TestCaseError::fail(e));
        }
        let fs = flat.skyline_stats();
        prop_assert_eq!(fs.group_visits, 0);
        prop_assert_eq!(fs.group_skips, 0);
        prop_assert_eq!(fs.shard_visits + fs.shard_skips, fs.decisions * n_shards);
        let ts = tree.skyline_stats();
        prop_assert_eq!(ts.decisions, fs.decisions);
        if grouped {
            // Every group visited or skipped; shard counters only cover
            // members of visited groups.
            prop_assert_eq!(ts.group_visits + ts.group_skips, ts.decisions * n_groups);
            prop_assert!(ts.shard_visits + ts.shard_skips <= ts.decisions * n_shards);
        } else {
            // Degenerate tree: both arms ran the flat walk.
            prop_assert_eq!(ts.group_visits, 0);
            prop_assert_eq!(ts.group_skips, 0);
            prop_assert_eq!(ts.shard_visits + ts.shard_skips, ts.decisions * n_shards);
        }
        Ok(())
    }

    prop_compose! {
        fn arb_costs()(i in 0.0f64..3.0, c in 0.1f64..30.0, o in 0.0f64..3.0) -> PhaseCosts {
            PhaseCosts::new(i, c, o)
        }
    }

    fn arb_ops(n_servers: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, f64, u32)>> {
        proptest::collection::vec(
            // (op kind, server, problem, time gap, excluded server)
            (
                0u32..10,
                0u32..n_servers as u32,
                0u32..N_PROBLEMS as u32,
                0.0f64..15.0,
                0u32..n_servers as u32,
            ),
            1..40,
        )
    }

    /// Like [`arb_ops`] but the kind range also covers crashes (10) and
    /// repairs (11), so runs exercise crash retraction, the availability
    /// hooks and decisions over partially-dead farms.
    fn arb_churn_ops(n_servers: usize) -> impl Strategy<Value = Vec<(u32, u32, u32, f64, u32)>> {
        proptest::collection::vec(
            (
                0u32..12,
                0u32..n_servers as u32,
                0u32..N_PROBLEMS as u32,
                0.0f64..15.0,
                0u32..n_servers as u32,
            ),
            1..40,
        )
    }

    /// Runs `phases[0]`, then before each later phase re-partitions
    /// both routers to the same new map — one through the incremental
    /// [`AgentRouter::rebalance`], the other through the
    /// replay-everything `rebalance_full` oracle over the session's op
    /// log — demanding every phase stays bit-identical and the resting
    /// models agree. With two rebalances, a block rebuilt by the first
    /// can be rebuilt again next to survivors by the second.
    #[allow(clippy::too_many_arguments)]
    fn run_rebalance_differential(
        n_servers: usize,
        costs: Vec<PhaseCosts>,
        solvable: Vec<bool>,
        shards_before: usize,
        shards_after: &[usize],
        selector: SelectorKind,
        sync: SyncPolicy,
        phases: Vec<Vec<RawOp>>,
    ) -> Result<(), TestCaseError> {
        assert_eq!(phases.len(), shards_after.len() + 1);
        let table = build_table(n_servers, &costs, &solvable);
        let harness = DiffHarness::new(table.clone());
        let scoring = IndexScoring::default();
        let mut incremental =
            AgentRouter::new(&table, Some(shards_before), selector, scoring, sync);
        let mut full = AgentRouter::new(&table, Some(shards_before), selector, scoring, sync);
        let mut session = harness.session();
        for (i, phase) in phases.into_iter().enumerate() {
            if i > 0 {
                let new_map = ShardMap::new(n_servers, shards_after[i - 1]);
                incremental.rebalance(&table, new_map.clone());
                full.rebalance_full(&table, new_map, session.model_ops());
                prop_assert_eq!(incremental.n_shards(), full.n_shards());
                prop_assert_eq!(incremental.map(), full.map());
            }
            let ops: Vec<Op> = phase.into_iter().map(Op::from).collect();
            if let Err(e) = session.run(&mut incremental, &mut full, &ops) {
                return Err(TestCaseError::fail(format!("phase {i}: {e}")));
            }
        }
        if let Err(e) = session.finish(&mut incremental, &mut full) {
            return Err(TestCaseError::fail(e));
        }
        Ok(())
    }

    /// The invisibility half of the rebalance proof, under the
    /// exhaustive selector (whose merge is the untruncated union, so a
    /// partition change cannot alter candidate sets): a router
    /// re-sharded mid-run stays bit-identical to one that **never**
    /// rebalanced.
    #[allow(clippy::too_many_arguments)]
    fn run_rebalance_invariance(
        n_servers: usize,
        costs: Vec<PhaseCosts>,
        solvable: Vec<bool>,
        shards_before: usize,
        shards_after: usize,
        sync: SyncPolicy,
        prefix: Vec<(u32, u32, u32, f64, u32)>,
        suffix: Vec<(u32, u32, u32, f64, u32)>,
    ) -> Result<(), TestCaseError> {
        let table = build_table(n_servers, &costs, &solvable);
        let harness = DiffHarness::new(table.clone());
        let scoring = IndexScoring::default();
        let selector = SelectorKind::Exhaustive;
        let mut fixed = AgentRouter::new(&table, Some(shards_before), selector, scoring, sync);
        let mut moved = AgentRouter::new(&table, Some(shards_before), selector, scoring, sync);
        let prefix: Vec<Op> = prefix.into_iter().map(Op::from).collect();
        let suffix: Vec<Op> = suffix.into_iter().map(Op::from).collect();
        let mut session = harness.session();
        if let Err(e) = session.run(&mut fixed, &mut moved, &prefix) {
            return Err(TestCaseError::fail(format!("prefix: {e}")));
        }
        moved.rebalance(&table, ShardMap::new(n_servers, shards_after));
        if let Err(e) = session.run(&mut fixed, &mut moved, &suffix) {
            return Err(TestCaseError::fail(format!("suffix: {e}")));
        }
        if let Err(e) = session.finish(&mut fixed, &mut moved) {
            return Err(TestCaseError::fail(e));
        }
        Ok(())
    }

    proptest! {
        /// `--shards 1` ≡ the unsharded engine, per decision, for every
        /// selector backend (the S = 1 invariant of the module docs).
        #[test]
        fn router_single_shard_is_bitwise_reference(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_ops(N_SERVERS),
        ) {
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_reference_differential(
                N_SERVERS, costs, solvable, 1, selector_of(selector_pick), sync, ops,
            )?;
        }

        /// Under the exhaustive selector the scatter–merge–gather router
        /// is bit-identical to the single agent at **any** shard count:
        /// the union of per-shard every-solver loops is the every-solver
        /// loop.
        #[test]
        fn router_exhaustive_any_shard_count_is_bitwise_reference(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            n_shards in 2usize..N_SERVERS + 1,
            force_finish in proptest::bool::ANY,
            ops in arb_ops(N_SERVERS),
        ) {
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_reference_differential(
                N_SERVERS, costs, solvable, n_shards, SelectorKind::Exhaustive, sync, ops,
            )?;
        }

        /// The skyline property: the skyline-merged router is
        /// **bit-identical** to the eager-merge oracle over arbitrary
        /// interleavings, for every selector backend and
        /// `S ∈ {1, 2, 3, 16}` on an 18-server farm — the skyline prunes
        /// the merge's walk, never its semantics.
        #[test]
        fn skyline_merge_is_pure_pruning_of_eager_merge(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_WIDE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_WIDE * N_PROBLEMS,
            ),
            shard_pick in 0usize..4,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_ops(N_SERVERS_WIDE),
        ) {
            let n_shards = [1usize, 2, 3, 16][shard_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_skyline_differential(
                N_SERVERS_WIDE, costs, solvable, n_shards, selector_of(selector_pick), sync, ops,
            )?;
        }

        /// Crash-retraction equivalence: over op streams that crash and
        /// repair servers (retracting every in-flight task of the
        /// victim), `--shards 1` stays bitwise the single-agent
        /// reference for every selector backend.
        #[test]
        fn router_crash_retraction_is_bitwise_reference(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_churn_ops(N_SERVERS),
        ) {
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_reference_differential(
                N_SERVERS, costs, solvable, 1, selector_of(selector_pick), sync, ops,
            )?;
        }

        /// Crash-retraction equivalence across a real federation: under
        /// the exhaustive selector any shard count stays bitwise the
        /// single-agent reference through crashes and repairs.
        #[test]
        fn router_exhaustive_crash_retraction_any_shard_count(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS * N_PROBLEMS),
            solvable in proptest::collection::vec(proptest::bool::ANY, N_SERVERS * N_PROBLEMS),
            n_shards in 2usize..N_SERVERS + 1,
            force_finish in proptest::bool::ANY,
            ops in arb_churn_ops(N_SERVERS),
        ) {
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_reference_differential(
                N_SERVERS, costs, solvable, n_shards, SelectorKind::Exhaustive, sync, ops,
            )?;
        }

        /// The lazy skyline merge stays a pure pruning of the eager
        /// scatter when servers crash and repair mid-run (availability
        /// flips move shard skylines under the merge's feet).
        #[test]
        fn skyline_merge_survives_churn_ops(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_WIDE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_WIDE * N_PROBLEMS,
            ),
            shard_pick in 0usize..4,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_churn_ops(N_SERVERS_WIDE),
        ) {
            let n_shards = [1usize, 2, 3, 16][shard_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_skyline_differential(
                N_SERVERS_WIDE, costs, solvable, n_shards, selector_of(selector_pick), sync, ops,
            )?;
        }

        /// The rebalance proof, half one: re-partitioning twice mid-run
        /// through the incremental block-reusing, ledger-carrying
        /// `rebalance` is **bit-identical** — on every later op and the
        /// resting model — to the replay-everything `rebalance_full`
        /// oracle, for every selector backend, shard count transition
        /// and fault schedule.
        #[test]
        fn rebalance_incremental_is_bitwise_full_rebuild(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_WIDE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_WIDE * N_PROBLEMS,
            ),
            before_pick in 0usize..4,
            after_pick in 0usize..4,
            again_pick in 0usize..4,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            prefix in arb_churn_ops(N_SERVERS_WIDE),
            middle in arb_churn_ops(N_SERVERS_WIDE),
            suffix in arb_churn_ops(N_SERVERS_WIDE),
        ) {
            let shards_before = [1usize, 2, 3, 16][before_pick];
            let shards_after = [[1usize, 2, 4, 9][after_pick], [2usize, 3, 5, 16][again_pick]];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_rebalance_differential(
                N_SERVERS_WIDE, costs, solvable, shards_before, &shards_after,
                selector_of(selector_pick), sync, vec![prefix, middle, suffix],
            )?;
        }

        /// The two-level tentpole property: the group-walking router is
        /// **bit-identical** to the flat per-shard walk over arbitrary
        /// interleavings — crashes and repairs included — for every
        /// selector backend, `S ∈ {1, 2, 16, 64}` and group fan-outs
        /// down to one shard per group, on a 72-server farm.
        #[test]
        fn tree_walk_is_pure_pruning_of_flat_walk(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_HUGE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_HUGE * N_PROBLEMS,
            ),
            shard_pick in 0usize..4,
            group_pick in 0usize..4,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_churn_ops(N_SERVERS_HUGE),
        ) {
            let n_shards = [1usize, 2, 16, 64][shard_pick];
            let group_size = [1usize, 2, 4, 16][group_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_tree_differential(
                N_SERVERS_HUGE, costs, solvable, n_shards, group_size,
                selector_of(selector_pick), sync, ops, false,
            )?;
        }

        /// The parallel stage-1 arm, forced on (so the proof holds on
        /// single-core hosts too): the eager per-group scatter with
        /// slot-indexed reduction is **bit-identical** to the flat
        /// serial walk for every selector backend, shard count and
        /// fan-out.
        #[test]
        fn parallel_stage1_is_bitwise_the_serial_walk(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_HUGE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_HUGE * N_PROBLEMS,
            ),
            shard_pick in 0usize..4,
            group_pick in 0usize..4,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            ops in arb_churn_ops(N_SERVERS_HUGE),
        ) {
            let n_shards = [1usize, 2, 16, 64][shard_pick];
            let group_size = [1usize, 2, 4, 16][group_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_tree_differential(
                N_SERVERS_HUGE, costs, solvable, n_shards, group_size,
                selector_of(selector_pick), sync, ops, true,
            )?;
        }

        /// Group-skyline staleness across a rebalance: both routers run
        /// the group walk (fan-out 2), one re-partitioned through the
        /// incremental `rebalance` (which rebuilds the tree and drops
        /// every cached group key), the other through the full-rebuild
        /// oracle — prefix and suffix full of crashes and repairs, picks
        /// bit-identical throughout, resting models equal.
        #[test]
        fn tree_rebalance_stays_bitwise_across_churn(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_WIDE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_WIDE * N_PROBLEMS,
            ),
            before_pick in 0usize..3,
            after_pick in 0usize..3,
            selector_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            prefix in arb_churn_ops(N_SERVERS_WIDE),
            suffix in arb_churn_ops(N_SERVERS_WIDE),
        ) {
            let shards_before = [2usize, 9, 16][before_pick];
            let shards_after = [2usize, 4, 16][after_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            let table = build_table(N_SERVERS_WIDE, &costs, &solvable);
            let harness = DiffHarness::new(table.clone());
            let scoring = IndexScoring::default();
            let selector = selector_of(selector_pick);
            let mut incremental =
                AgentRouter::new(&table, Some(shards_before), selector, scoring, sync)
                    .with_group_size(2);
            let mut full = AgentRouter::new(&table, Some(shards_before), selector, scoring, sync)
                .with_group_size(2);
            let prefix: Vec<Op> = prefix.into_iter().map(Op::from).collect();
            let suffix: Vec<Op> = suffix.into_iter().map(Op::from).collect();
            let mut session = harness.session();
            if let Err(e) = session.run(&mut incremental, &mut full, &prefix) {
                return Err(TestCaseError::fail(format!("prefix: {e}")));
            }
            let new_map = ShardMap::new(N_SERVERS_WIDE, shards_after);
            incremental.rebalance(&table, new_map.clone());
            full.rebalance_full(&table, new_map, session.model_ops());
            prop_assert_eq!(incremental.tree().n_groups(), full.tree().n_groups());
            if let Err(e) = session.run(&mut incremental, &mut full, &suffix) {
                return Err(TestCaseError::fail(format!("suffix: {e}")));
            }
            if let Err(e) = session.finish(&mut incremental, &mut full) {
                return Err(TestCaseError::fail(e));
            }
        }

        /// The rebalance proof, half two: under the exhaustive selector a
        /// mid-run re-shard is invisible — bit-identical to a router that
        /// never rebalanced at all.
        #[test]
        fn rebalance_is_invisible_under_exhaustive_selector(
            costs in proptest::collection::vec(arb_costs(), N_SERVERS_WIDE * N_PROBLEMS),
            solvable in proptest::collection::vec(
                proptest::bool::ANY, N_SERVERS_WIDE * N_PROBLEMS,
            ),
            before_pick in 0usize..4,
            after_pick in 0usize..4,
            force_finish in proptest::bool::ANY,
            prefix in arb_churn_ops(N_SERVERS_WIDE),
            suffix in arb_churn_ops(N_SERVERS_WIDE),
        ) {
            let shards_before = [1usize, 2, 3, 16][before_pick];
            let shards_after = [1usize, 2, 4, 9][after_pick];
            let sync = if force_finish { SyncPolicy::ForceFinish } else { SyncPolicy::None };
            run_rebalance_invariance(
                N_SERVERS_WIDE, costs, solvable, shards_before, shards_after, sync,
                prefix, suffix,
            )?;
        }
    }
}
