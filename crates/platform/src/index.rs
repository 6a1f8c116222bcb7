//! The incrementally maintained stage-1 placement index.
//!
//! At 1k servers the HTM heuristics' one-speculative-drain-per-candidate
//! fan-out dominates every scheduling decision. The cure is the standard
//! two-stage pipeline: a cheap *static* filter proposes a shortlist, the
//! expensive model scores only the shortlist. [`StaticIndex`] is that
//! filter's data structure: for every problem it keeps the solvable
//! servers ordered by a static completion proxy, selectable via
//! [`IndexScoring`]:
//!
//! ```text
//! RemainingWork:  score(p, s) = d(p, s) + remaining(s)
//! ActiveCount:    score(p, s) = d(p, s) · (active(s) + 1)
//! ```
//!
//! `remaining(s)` is the work still in flight on the server — each
//! commit charges the task's service demand (its unloaded duration,
//! recorded at commit time), each completion pays it back — so on
//! heterogeneous task mixes a server carrying one long task no longer
//! outranks one carrying two short ones. Service demands, unlike
//! predicted residence times, sum to exactly the serial drain time of
//! the backlog (residence includes queueing delay and would count the
//! queue once per queued task); `d + remaining` is then the classic "my
//! cost after the queue drains" proxy. `ActiveCount` is the original count-based scorer (unloaded
//! duration stretched by the believed in-flight count, the CPU-sharing
//! intuition of the NetSolve estimate) and stays available behind the
//! experiment-config flag as the comparison baseline.
//!
//! The index is **incremental**: the per-server believed load changes only
//! on [`StaticIndex::on_commit`] / [`StaticIndex::on_retract`] /
//! [`StaticIndex::on_complete`] hooks, and each hook re-ranks exactly one
//! server in each problem's ordered set. A k-best query walks the head of
//! one ordered set — no O(n) rescan of server state happens per arrival.
//!
//! Scores are ordered by their IEEE-754 bit patterns (valid because scores
//! are non-negative finite), with the server id as tie-break, so every
//! ordering question has one deterministic answer.
//!
//! # Ranking storage: the flat ladder
//!
//! Each problem's ordering is a *bucketed ladder* of flat sorted runs of
//! `(score bits, server)` keys with lazy repair: a re-rank marks the old
//! key stale in O(1) (a per-server `current` stamp is the single source
//! of liveness truth) and inserts the new key into a 32-key top run; when
//! the top run overflows it merges down into geometrically larger runs,
//! so a re-rank costs amortised O(log n) contiguous key copies — never
//! the O(n) fold a single sorted vector would pay, and never a balanced
//! tree's pointer surgery. Reads merge the ladder's ≲4 runs, skipping
//! stale keys; every step is a linear scan over contiguous 12-byte keys —
//! no pointer chasing — which is what the decision path's skyline reads
//! and k-best walks want at shard scale.
//!
//! The oracle is a plain per-problem `BTreeSet<(u64, u32)>` of the live
//! keys, kept in the test module: the proptests drive the index through
//! arbitrary commit/complete/crash/repair streams and diff every query
//! surface against it after every op.

use crate::cost::CostTable;
use crate::ids::{ProblemId, ServerId};

/// Ordered key of one server inside one problem's ranking: score bits,
/// then server id (deterministic total order).
type RankKey = (u64, u32);

/// The one definition of the stage-1 completion proxy. `score`, the
/// ranked-set keys inserted by `rerank`, and every hook must agree bit
/// for bit — a removal keyed with a diverged formula would silently
/// leave stale entries in the rankings (the `debug_assert` in `rerank`
/// is compiled out in release) — so both call through here.
#[inline]
fn proxy_score(scoring: IndexScoring, d: f64, active: u32, remaining: f64) -> f64 {
    match scoring {
        IndexScoring::RemainingWork => d + remaining,
        IndexScoring::ActiveCount => d * (active as f64 + 1.0),
    }
}

/// Non-negative finite `f64` → order-preserving `u64` key.
#[inline]
fn score_bits(score: f64) -> u64 {
    debug_assert!(
        score >= 0.0 && score.is_finite(),
        "stage-1 scores must be non-negative finite, got {score}"
    );
    score.to_bits()
}

/// Which static completion proxy orders the stage-1 rankings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexScoring {
    /// `d(p, s) + remaining(s)`: the unloaded duration behind the
    /// server's remaining backlog of service demands (charged at commit,
    /// paid back on completion). The default — sharper on heterogeneous
    /// task mixes.
    #[default]
    RemainingWork,
    /// `d(p, s) · (active(s) + 1)`: the original count-based scorer, kept
    /// as the comparison baseline.
    ActiveCount,
}

impl IndexScoring {
    /// Parses `work` / `remaining` or `count` / `active`
    /// (case-insensitive).
    pub fn parse(s: &str) -> Option<IndexScoring> {
        match s.to_ascii_lowercase().as_str() {
            "work" | "remaining" => Some(IndexScoring::RemainingWork),
            "count" | "active" => Some(IndexScoring::ActiveCount),
            _ => None,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            IndexScoring::RemainingWork => "work",
            IndexScoring::ActiveCount => "count",
        }
    }
}

/// `current` stamp of a server absent from a ranking (down, or never
/// solvable there). `u64::MAX` is the bit pattern of a negative NaN —
/// never a valid non-negative finite score, so it cannot collide with a
/// live key's bits.
const LIVE_NONE: u64 = u64::MAX;

/// Capacity of the ladder's top run.
const RUN0_CAP: usize = 32;

/// Each run is 8× the one above (see [`run_cap`]), trading a few extra
/// amortised merge copies — contiguous memcpy, nearly free — for a
/// shallow ladder: every read is a merge across all runs, so walk cost
/// scales with depth, and 8× keeps a 100k-server ranking at 4 runs
/// where doubling would need 12.
const RUN_GROWTH_LOG2: usize = 3;

/// Ladder depth the stack-allocated iterator cursor supports. Run 11
/// alone holds 2^38 keys — far past any farm simulated here.
const MAX_RUNS: usize = 12;

/// Capacity of run `r`: an overflowing run merges down into the run
/// below.
#[inline]
fn run_cap(r: usize) -> usize {
    RUN0_CAP << (RUN_GROWTH_LOG2 * r)
}

/// One problem's flat ranking: a *bucketed ladder* of sorted runs of
/// `(score bits, server)` keys that may contain stale entries, plus a
/// per-server `current` stamp that is the single source of truth for
/// liveness — the key `(bits, s)` is live iff `current[s] == bits`. The
/// live keys across all runs are exactly the ranking's ordered set at all
/// times.
///
/// Inserts go into run 0 (capacity [`RUN0_CAP`]); an overflowing run
/// merges down into the geometrically larger run below it, dropping
/// stale keys as it goes, so an insert costs amortised O(log n)
/// contiguous key copies. Removal just flips the stamp (O(1)); a full
/// rebuild fires only when stale keys outnumber live ones, keeping
/// storage within 2× the live set. A key re-inserted while a stale copy
/// still sits in a deeper run is stored again in run 0 — each run is
/// duplicate-free, but runs may shadow each other — and the read-side
/// merges collapse equal keys to one. (Reviving the deep copy instead
/// would rewind that run's head and force a rescan of its stale prefix;
/// deep heads must only ever advance.)
#[derive(Debug, Clone)]
struct FlatRanking {
    /// Sorted runs, top (newest, smallest) first; mutually disjoint.
    runs: Vec<Vec<RankKey>>,
    /// Per-run cursor: entries before it are all stale, the entry at it
    /// (if any) is live — maintained by the mutation hooks so the
    /// skyline read is a min over run heads, never a rescan.
    heads: Vec<usize>,
    /// Live key bits per server; [`LIVE_NONE`] when the server is not in
    /// this ranking.
    current: Vec<u64>,
    /// Number of live keys — the ranking's cardinality.
    live: usize,
    /// Total stored keys across runs, live + stale (the rebuild
    /// trigger's bookkeeping).
    total: usize,
    /// Reused merge buffer — merges allocate nothing once the ladder
    /// reaches its high-water capacity.
    scratch: Vec<RankKey>,
}

impl FlatRanking {
    fn new(n_servers: usize) -> Self {
        FlatRanking {
            runs: vec![Vec::new()],
            heads: vec![0],
            current: vec![LIVE_NONE; n_servers],
            live: 0,
            total: 0,
            scratch: Vec::new(),
        }
    }

    /// Whether the key `(bits, s)` is live (stale keys stay in storage
    /// until a merge sweeps them out).
    #[inline]
    fn is_live(&self, key: RankKey) -> bool {
        self.current[key.1 as usize] == key.0
    }

    /// Makes `s` live at `bits`. The server must currently be dormant.
    fn activate(&mut self, s: u32, bits: u64) {
        debug_assert_eq!(self.current[s as usize], LIVE_NONE, "server already ranked");
        debug_assert_ne!(bits, LIVE_NONE);
        let key = (bits, s);
        self.current[s as usize] = bits;
        self.live += 1;
        // Only run 0 is touched: a revive of a stale leftover sitting in
        // a deeper run would have to rewind that run's head, and the
        // next deactivate would then rescan the stale prefix — deep
        // heads must only ever advance for the amortisation to hold. So
        // the key is (re)inserted at the top and any stale copy below is
        // left for the merges to sweep; the copies are exact duplicates,
        // which the read-side merges collapse.
        let pos = match self.runs[0].binary_search(&key) {
            Ok(pos) => {
                // Already stored in run 0 (a commit/complete pair
                // returned the server to a score it held moments ago):
                // live again in place.
                self.heads[0] = self.heads[0].min(pos);
                return;
            }
            Err(pos) => pos,
        };
        self.runs[0].insert(pos, key);
        if pos < self.heads[0] {
            self.heads[0] = pos;
        }
        self.total += 1;
        if self.runs[0].len() > RUN0_CAP {
            let mut r = 0;
            while {
                self.merge_down(r);
                r += 1;
                self.runs[r].len() > run_cap(r)
            } {}
        }
        if self.total > self.live + self.live / 4 + RUN0_CAP {
            self.rebuild();
        }
    }

    /// Makes `s` dormant, returning the bits it was live at. The key
    /// stays in storage as a stale entry until a merge sweeps it out.
    fn deactivate(&mut self, s: u32) -> u64 {
        let bits = std::mem::replace(&mut self.current[s as usize], LIVE_NONE);
        debug_assert_ne!(bits, LIVE_NONE, "server not ranked");
        self.live -= 1;
        self.advance_heads();
        bits
    }

    /// Moves each run's head past its stale prefix, so every head points
    /// at a live key (or run end). Amortised O(1) per mutation: a key is
    /// skipped at most once per stay in its run.
    fn advance_heads(&mut self) {
        let FlatRanking {
            runs,
            heads,
            current,
            ..
        } = self;
        for (run, head) in runs.iter().zip(heads.iter_mut()) {
            while let Some(&(bits, s)) = run.get(*head) {
                if current[s as usize] == bits {
                    break;
                }
                *head += 1;
            }
        }
    }

    /// Merges run `r` into run `r + 1` (one linear pass over contiguous
    /// keys, dropping stale entries), leaving run `r` empty.
    fn merge_down(&mut self, r: usize) {
        if r + 1 == self.runs.len() {
            self.runs.push(Vec::new());
            self.heads.push(0);
            debug_assert!(self.runs.len() <= MAX_RUNS, "ladder deeper than any farm");
        }
        let FlatRanking {
            runs,
            heads,
            current,
            total,
            scratch,
            ..
        } = self;
        let (top, rest) = runs.split_at_mut(r + 1);
        let (a, b) = (&mut top[r], &mut rest[0]);
        scratch.clear();
        scratch.reserve(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let key = match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    i += 1;
                    a[i - 1]
                }
                std::cmp::Ordering::Greater => {
                    j += 1;
                    b[j - 1]
                }
                std::cmp::Ordering::Equal => {
                    // The same key re-inserted above its stale copy:
                    // collapse to one.
                    i += 1;
                    j += 1;
                    a[i - 1]
                }
            };
            if current[key.1 as usize] == key.0 {
                scratch.push(key);
            }
        }
        let live = |&&(bits, s): &&RankKey| current[s as usize] == bits;
        scratch.extend(a[i..].iter().filter(live));
        scratch.extend(b[j..].iter().filter(live));
        *total -= a.len() + b.len() - scratch.len();
        a.clear();
        std::mem::swap(b, scratch);
        heads[r] = 0;
        heads[r + 1] = 0;
    }

    /// The stale-majority repair: cascades every run into the deepest
    /// one (each merge a linear pass over already-sorted keys), leaving
    /// the ladder all-live so walks stop paying for dead front entries.
    fn rebuild(&mut self) {
        for r in 0..self.runs.len() - 1 {
            self.merge_down(r);
        }
        debug_assert_eq!(self.total, self.live, "rebuild keeps exactly the live keys");
    }

    /// The best live key, or `None` when the ranking is empty — the min
    /// over the run heads (each already resting on a live key).
    fn first(&self) -> Option<RankKey> {
        let mut best: Option<RankKey> = None;
        for (run, &head) in self.runs.iter().zip(self.heads.iter()) {
            if let Some(&key) = run.get(head) {
                debug_assert!(self.is_live(key));
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        best
    }

    /// All live keys, ascending — a k-way merge over the runs skipping
    /// stale keys.
    fn iter(&self) -> FlatIter<'_> {
        debug_assert!(self.runs.len() <= MAX_RUNS);
        let mut cursors = [0usize; MAX_RUNS];
        let mut cand = [EXHAUSTED; MAX_RUNS];
        for (r, (run, &head)) in self.runs.iter().zip(self.heads.iter()).enumerate() {
            cursors[r] = head;
            cand[r] = run.get(head).copied().unwrap_or(EXHAUSTED);
        }
        FlatIter {
            runs: &self.runs,
            current: &self.current,
            cursors,
            cand,
            last: None,
        }
    }

    /// One more server slot (joins dormant).
    fn push_slot(&mut self) {
        self.current.push(LIVE_NONE);
    }
}

/// Ascending live-key iterator over a [`FlatRanking`] (k-way merge of
/// the ladder's runs, stale keys skipped; the cursor array lives on the
/// stack so decisions allocate nothing).
/// Sentinel candidate of an exhausted run: past every real key (score
/// bits of a finite non-negative `f64` never reach `u64::MAX`).
const EXHAUSTED: RankKey = (u64::MAX, u32::MAX);

struct FlatIter<'a> {
    runs: &'a [Vec<RankKey>],
    current: &'a [u64],
    cursors: [usize; MAX_RUNS],
    /// Key each cursor rests on ([`EXHAUSTED`] past the run's end),
    /// cached so the per-item min scan reads a stack array instead of
    /// re-chasing every run.
    cand: [RankKey; MAX_RUNS],
    /// Last key yielded — a re-inserted key may sit in several runs, and
    /// equal keys are adjacent in merge order, so comparing against the
    /// last yield collapses them to one.
    last: Option<RankKey>,
}

impl Iterator for FlatIter<'_> {
    type Item = RankKey;

    fn next(&mut self) -> Option<RankKey> {
        loop {
            let (mut key, mut at) = (EXHAUSTED, usize::MAX);
            for r in 0..self.runs.len() {
                if self.cand[r] < key {
                    key = self.cand[r];
                    at = r;
                }
            }
            if key == EXHAUSTED {
                return None;
            }
            self.cursors[at] += 1;
            self.cand[at] = self.runs[at]
                .get(self.cursors[at])
                .copied()
                .unwrap_or(EXHAUSTED);
            if self.last != Some(key) && self.current[key.1 as usize] == key.0 {
                self.last = Some(key);
                return Some(key);
            }
        }
    }
}

/// The agent's incrementally maintained static placement index.
#[derive(Debug, Clone)]
pub struct StaticIndex {
    n_servers: usize,
    scoring: IndexScoring,
    /// Tasks the scheduler believes are in flight per server (its own
    /// commit ledger, not the stale monitor reports).
    active: Vec<u32>,
    /// Predicted work still in flight per server, seconds (summed from
    /// the `work` argument of the commit hook, decremented on
    /// completion/retract, floored at zero).
    remaining: Vec<f64>,
    /// Unloaded durations, row-major `problem * n_servers + server`;
    /// `None` = unsolvable there.
    durations: Vec<Option<f64>>,
    /// Liveness per server: an unavailable server keeps its load ledgers
    /// (tasks may still drain off a leaving server) but is absent from
    /// every ranking, so stage 1 never proposes it and the skylines
    /// reflect the live farm only.
    available: Vec<bool>,
    /// Number of `true` entries in `available`.
    n_available: usize,
    /// Per problem: solvable **available** servers ordered by
    /// `(score_bits, id)`.
    ranked: Vec<FlatRanking>,
}

impl StaticIndex {
    /// Builds the index from the static cost table with the default
    /// [`IndexScoring::RemainingWork`] proxy; every server starts with
    /// zero believed load.
    pub fn new(costs: &CostTable) -> Self {
        Self::with_scoring(costs, IndexScoring::default())
    }

    /// Builds the index with an explicit scoring proxy; every server
    /// starts live and idle.
    pub fn with_scoring(costs: &CostTable, scoring: IndexScoring) -> Self {
        Self::build(costs, scoring, |_| (0, 0.0, true))
    }

    /// Builds the index with every server's ledger given up front:
    /// `ledgers[s] = (active, remaining, available)`. Each available
    /// server's key goes into each ranking once, at its final score, so
    /// the result answers every query exactly as an index driven to the
    /// same ledgers through the hooks would. A federation rebuilds a
    /// moved block this way from the ledgers its old engines hold —
    /// ledgers are per server, so they cross a block boundary unchanged.
    ///
    /// # Panics
    /// Panics unless there is exactly one ledger per server.
    pub fn with_ledgers(
        costs: &CostTable,
        scoring: IndexScoring,
        ledgers: &[(u32, f64, bool)],
    ) -> Self {
        assert_eq!(ledgers.len(), costs.n_servers(), "one ledger per server");
        Self::build(costs, scoring, |s| ledgers[s])
    }

    /// The one constructor body: `ledger(s)` is server `s`'s `(active,
    /// remaining, available)`. A closure rather than a slice, so the
    /// all-idle build allocates no ledger table.
    fn build(
        costs: &CostTable,
        scoring: IndexScoring,
        ledger: impl Fn(usize) -> (u32, f64, bool),
    ) -> Self {
        let n_servers = costs.n_servers();
        let n_problems = costs.n_problems();
        let mut durations = Vec::with_capacity(n_problems * n_servers);
        for p in 0..n_problems {
            for s in 0..n_servers {
                durations.push(costs.unloaded_duration(ProblemId(p as u32), ServerId(s as u32)));
            }
        }
        let mut idx = StaticIndex {
            n_servers,
            scoring,
            active: (0..n_servers).map(|s| ledger(s).0).collect(),
            remaining: (0..n_servers).map(|s| ledger(s).1).collect(),
            durations,
            available: (0..n_servers).map(|s| ledger(s).2).collect(),
            n_available: (0..n_servers).filter(|&s| ledger(s).2).count(),
            ranked: (0..n_problems)
                .map(|_| FlatRanking::new(n_servers))
                .collect(),
        };
        for p in 0..n_problems {
            for s in 0..n_servers {
                let (active, remaining, available) = ledger(s);
                if let (Some(d), true) = (idx.durations[p * n_servers + s], available) {
                    let bits = score_bits(proxy_score(scoring, d, active, remaining));
                    idx.insert_key(p, s as u32, bits);
                }
            }
        }
        idx
    }

    /// Inserts the live key `(bits, s)` into problem `p`'s ranking.
    fn insert_key(&mut self, p: usize, s: u32, bits: u64) {
        self.ranked[p].activate(s, bits);
    }

    /// Removes the live key of `s` from problem `p`'s ranking; `bits` is
    /// the key it must currently be live at.
    fn remove_key(&mut self, p: usize, s: u32, bits: u64) {
        let was = self.ranked[p].deactivate(s);
        debug_assert_eq!(was, bits, "server {s} stale in ranking of P{p}");
    }

    /// Number of servers covered.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// The scoring proxy in use.
    pub fn scoring(&self) -> IndexScoring {
        self.scoring
    }

    /// Tasks the index believes are in flight on `server`.
    pub fn active(&self, server: ServerId) -> u32 {
        self.active[server.index()]
    }

    /// Predicted work the index believes is still in flight on `server`,
    /// seconds.
    pub fn remaining(&self, server: ServerId) -> f64 {
        self.remaining[server.index()]
    }

    /// Whether `server` can solve `problem` at all (live or not).
    pub fn solves(&self, problem: ProblemId, server: ServerId) -> bool {
        self.durations[problem.index() * self.n_servers + server.index()].is_some()
    }

    /// The head of `problem`'s ranking — the best current `(score bits,
    /// server)` key, or `None` when no server can solve the problem. This
    /// is the index's **skyline**: because the ranked sets are maintained
    /// by the same commit/retract/complete hooks that keep every other
    /// query current, the skyline needs no extra bookkeeping and is always
    /// exact. A shard federation reads it per decision to decide whether a
    /// shard can possibly contribute to the merged shortlist.
    pub fn best_key(&self, problem: ProblemId) -> Option<(u64, ServerId)> {
        self.ranked[problem.index()]
            .first()
            .map(|(bits, s)| (bits, ServerId(s)))
    }

    /// Number of servers able to solve `problem` (the size of its
    /// ranking). An upper bound on any selector's shortlist width for the
    /// problem, used alongside [`StaticIndex::best_key`] by the lazy
    /// merge.
    pub fn solvable_count(&self, problem: ProblemId) -> usize {
        self.ranked[problem.index()].live
    }

    /// The stage-1 score of `server` for `problem` at the current believed
    /// load, or `None` if the server cannot solve it.
    pub fn score(&self, problem: ProblemId, server: ServerId) -> Option<f64> {
        let s = server.index();
        self.durations[problem.index() * self.n_servers + s]
            .map(|d| proxy_score(self.scoring, d, self.active[s], self.remaining[s]))
    }

    /// Re-ranks `server` in every problem set after its believed load
    /// moved from `(old_active, old_remaining)` to the current values.
    /// Unavailable servers own no ranking entries, so only their ledgers
    /// move (they re-enter the rankings at the updated score on
    /// [`StaticIndex::set_available`]).
    fn rerank(&mut self, server: ServerId, old_active: u32, old_remaining: f64) {
        let s = server.index();
        if !self.available[s] {
            return;
        }
        let (new_active, new_remaining) = (self.active[s], self.remaining[s]);
        let scoring = self.scoring;
        for p in 0..self.durations.len() / self.n_servers {
            if let Some(d) = self.durations[p * self.n_servers + s] {
                let old = proxy_score(scoring, d, old_active, old_remaining);
                self.remove_key(p, s as u32, score_bits(old));
                let new = proxy_score(scoring, d, new_active, new_remaining);
                self.insert_key(p, s as u32, score_bits(new));
            }
        }
    }

    /// Marks `server` live or down. A downed server leaves every ranking
    /// (stage 1 stops proposing it, the per-problem skylines move on); a
    /// rejoining server re-enters at its current believed-load score.
    /// Ledgers are untouched either way, so completions draining off a
    /// leaving server keep their accounting. Returns `true` when the
    /// state actually changed (the call is idempotent).
    pub fn set_available(&mut self, server: ServerId, up: bool) -> bool {
        let s = server.index();
        if self.available[s] == up {
            return false;
        }
        self.available[s] = up;
        if up {
            self.n_available += 1;
        } else {
            self.n_available -= 1;
        }
        let (active, remaining) = (self.active[s], self.remaining[s]);
        let scoring = self.scoring;
        for p in 0..self.durations.len() / self.n_servers {
            if let Some(d) = self.durations[p * self.n_servers + s] {
                let bits = score_bits(proxy_score(scoring, d, active, remaining));
                if up {
                    self.insert_key(p, s as u32, bits);
                } else {
                    self.remove_key(p, s as u32, bits);
                }
            }
        }
        true
    }

    /// Whether `server` is currently live (present in the rankings).
    pub fn is_available(&self, server: ServerId) -> bool {
        self.available[server.index()]
    }

    /// Number of live servers — O(1), counted by the availability hooks.
    pub fn available_count(&self) -> usize {
        self.n_available
    }

    /// Extends the index with one new server, online: `durations[p]` is
    /// the new server's unloaded duration for problem `p` (`None` =
    /// unsolvable there). The server joins live, with an empty ledger, at
    /// the next id — bit-identical to rebuilding the index from the
    /// extended cost table (proven by test).
    ///
    /// # Panics
    /// Panics unless exactly one duration per problem is given.
    pub fn push_server(&mut self, durations: &[Option<f64>]) {
        let n_problems = self.durations.len() / self.n_servers;
        assert_eq!(durations.len(), n_problems, "one duration per problem");
        let old_n = self.n_servers;
        let mut rows = Vec::with_capacity((old_n + 1) * n_problems);
        for (p, d) in durations.iter().enumerate() {
            rows.extend_from_slice(&self.durations[p * old_n..(p + 1) * old_n]);
            rows.push(*d);
        }
        self.durations = rows;
        self.n_servers = old_n + 1;
        self.active.push(0);
        self.remaining.push(0.0);
        self.available.push(true);
        self.n_available += 1;
        for r in &mut self.ranked {
            r.push_slot();
        }
        let scoring = self.scoring;
        for (p, d) in durations.iter().enumerate() {
            if let Some(d) = *d {
                self.insert_key(p, old_n as u32, score_bits(proxy_score(scoring, d, 0, 0.0)));
            }
        }
    }

    /// A task was committed to `server`: its believed load grows by one
    /// task and by `work` seconds (the task's service demand — its
    /// unloaded duration on this server — recorded at commit time).
    pub fn on_commit(&mut self, server: ServerId, work: f64) {
        let s = server.index();
        let (old_active, old_remaining) = (self.active[s], self.remaining[s]);
        self.active[s] = old_active + 1;
        self.remaining[s] = old_remaining + work.max(0.0);
        self.rerank(server, old_active, old_remaining);
    }

    /// A committed task was retracted from `server` (the placement was
    /// undone before running): believed load shrinks by the same amounts
    /// the commit added.
    pub fn on_retract(&mut self, server: ServerId, work: f64) {
        self.on_complete(server, work);
    }

    /// A task completed on `server`: believed load shrinks by one task
    /// and by the `work` its commit added (the remaining-work ledger is
    /// floored at zero against float drift).
    ///
    /// # Panics
    /// Panics if the believed load is already zero (a completion without a
    /// matching commit is an accounting bug).
    pub fn on_complete(&mut self, server: ServerId, work: f64) {
        let s = server.index();
        let (old_active, old_remaining) = (self.active[s], self.remaining[s]);
        assert!(
            old_active > 0,
            "completion on {server} without a matching commit"
        );
        self.active[s] = old_active - 1;
        self.remaining[s] = if self.active[s] == 0 {
            // An empty server carries no backlog: resetting (rather than
            // subtracting) cancels any accumulated float drift.
            0.0
        } else {
            (old_remaining - work.max(0.0)).max(0.0)
        };
        self.rerank(server, old_active, old_remaining);
    }

    /// Walks `problem`'s ranking in ascending score order, best first,
    /// skipping servers rejected by `admit`. The iterator is lazy: taking
    /// `k` items touches `k + rejected` keys (plus any stale keys the
    /// ladder skips on the way), not all `n`.
    pub fn ranked_iter<'a>(
        &'a self,
        problem: ProblemId,
        admit: &'a dyn Fn(ServerId) -> bool,
    ) -> impl Iterator<Item = (ServerId, f64)> + 'a {
        self.ranked[problem.index()]
            .iter()
            .map(|(bits, s)| (ServerId(s), f64::from_bits(bits)))
            .filter(move |&(s, _)| admit(s))
    }

    /// Fills `out` with the `k` admissible servers of lowest stage-1 score
    /// for `problem` (ties to the lowest id), in ascending **score** order.
    /// Fewer than `k` survive when the admissible set is smaller.
    pub fn k_best(
        &self,
        problem: ProblemId,
        k: usize,
        admit: &dyn Fn(ServerId) -> bool,
        out: &mut Vec<(ServerId, f64)>,
    ) {
        out.clear();
        if k == 0 {
            return;
        }
        out.extend(self.ranked_iter(problem, admit).take(k));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::PhaseCosts;
    use crate::task::Problem;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// 3 servers; P0 durations 100/150/300, P1 solvable only on S1 (50).
    fn table() -> CostTable {
        let mut c = CostTable::new(3);
        c.add_problem(
            Problem::new("p0", 0.0, 0.0, 0.0),
            vec![
                Some(PhaseCosts::new(0.0, 100.0, 0.0)),
                Some(PhaseCosts::new(0.0, 150.0, 0.0)),
                Some(PhaseCosts::new(0.0, 300.0, 0.0)),
            ],
        );
        c.add_problem(
            Problem::new("p1", 0.0, 0.0, 0.0),
            vec![None, Some(PhaseCosts::new(0.0, 50.0, 0.0)), None],
        );
        c
    }

    fn best(idx: &StaticIndex, p: u32, k: usize) -> Vec<u32> {
        let mut out = Vec::new();
        idx.k_best(ProblemId(p), k, &|_| true, &mut out);
        out.into_iter().map(|(s, _)| s.0).collect()
    }

    #[test]
    fn initial_ranking_is_static_cost_order() {
        let idx = StaticIndex::new(&table());
        assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
        assert_eq!(best(&idx, 0, 2), vec![0, 1]);
        assert_eq!(best(&idx, 1, 3), vec![1], "only S1 solves P1");
        assert_eq!(idx.score(ProblemId(0), ServerId(2)), Some(300.0));
        assert_eq!(idx.score(ProblemId(1), ServerId(0)), None);
    }

    #[test]
    fn commit_reorders_and_complete_restores() {
        let mut idx = StaticIndex::with_scoring(&table(), IndexScoring::ActiveCount);
        // Two commits on S0: score(P0,S0) = 100·3 = 300, ties S2's 300 →
        // id order keeps S0 ahead of S2.
        idx.on_commit(ServerId(0), 100.0);
        idx.on_commit(ServerId(0), 100.0);
        assert_eq!(idx.active(ServerId(0)), 2);
        assert_eq!(best(&idx, 0, 3), vec![1, 0, 2]);
        // A third commit pushes S0 last.
        idx.on_commit(ServerId(0), 100.0);
        assert_eq!(best(&idx, 0, 3), vec![1, 2, 0]);
        idx.on_complete(ServerId(0), 100.0);
        idx.on_retract(ServerId(0), 100.0);
        idx.on_complete(ServerId(0), 100.0);
        assert_eq!(idx.active(ServerId(0)), 0);
        assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
    }

    /// Edge case for the crash path: retracting the *last* in-flight
    /// task of a server drains its ledger to exactly zero and restores
    /// the pristine static order.
    #[test]
    fn retracting_last_in_flight_task_restores_static_rank() {
        let mut idx = StaticIndex::new(&table());
        idx.on_commit(ServerId(0), 500.0);
        assert_eq!(best(&idx, 0, 3), vec![1, 2, 0]);
        idx.on_retract(ServerId(0), 500.0);
        assert_eq!(idx.remaining(ServerId(0)), 0.0);
        assert_eq!(idx.active(ServerId(0)), 0);
        assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
    }

    /// Edge case for the crash path: a retract racing the server's
    /// crash at the same instant. Ledger update before the
    /// availability flip, or flip first with the ledger draining while
    /// down — both orders converge, and repair re-inserts the server
    /// at its believed (drained) load.
    #[test]
    fn retract_and_crash_same_instant_orders_converge() {
        for crash_first in [false, true] {
            let mut idx = StaticIndex::new(&table());
            idx.on_commit(ServerId(0), 500.0);
            idx.on_commit(ServerId(1), 10.0);
            if crash_first {
                assert!(idx.set_available(ServerId(0), false));
                idx.on_retract(ServerId(0), 500.0);
            } else {
                idx.on_retract(ServerId(0), 500.0);
                assert!(idx.set_available(ServerId(0), false));
            }
            assert!(!idx.is_available(ServerId(0)), "crash_first={crash_first}");
            assert_eq!(idx.solvable_count(ProblemId(0)), 2);
            assert_eq!(best(&idx, 0, 3), vec![1, 2]);
            assert_eq!(idx.remaining(ServerId(0)), 0.0);
            assert!(idx.set_available(ServerId(0), true));
            assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
            assert_eq!(
                idx.best_key(ProblemId(0)).map(|(_, s)| s),
                Some(ServerId(0)),
                "repaired server leads the skyline again"
            );
        }
    }

    #[test]
    fn remaining_work_ranks_by_backlog_not_count() {
        // S0 (d=100) carries one long task (500 s of predicted work);
        // S1 (d=150) carries two short ones (10 s each). The count scorer
        // prefers S0 (100·2 = 200 < 150·3 = 450); the remaining-work
        // scorer sees through the mix (100+500 = 600 > 150+20 = 170).
        let mut by_count = StaticIndex::with_scoring(&table(), IndexScoring::ActiveCount);
        let mut by_work = StaticIndex::new(&table());
        assert_eq!(by_work.scoring(), IndexScoring::RemainingWork);
        for idx in [&mut by_count, &mut by_work] {
            idx.on_commit(ServerId(0), 500.0);
            idx.on_commit(ServerId(1), 10.0);
            idx.on_commit(ServerId(1), 10.0);
        }
        assert_eq!(best(&by_count, 0, 3), vec![0, 2, 1]);
        assert_eq!(best(&by_work, 0, 3), vec![1, 2, 0]);
        assert_eq!(by_work.score(ProblemId(0), ServerId(0)), Some(600.0));
        assert_eq!(by_work.remaining(ServerId(1)), 20.0);
        // Completions restore the static order and drain the ledger.
        by_work.on_complete(ServerId(0), 500.0);
        by_work.on_complete(ServerId(1), 10.0);
        by_work.on_complete(ServerId(1), 10.0);
        assert_eq!(best(&by_work, 0, 3), vec![0, 1, 2]);
        assert_eq!(by_work.remaining(ServerId(0)), 0.0);
    }

    #[test]
    fn remaining_ledger_resets_when_idle_and_floors_at_zero() {
        let mut idx = StaticIndex::new(&table());
        idx.on_commit(ServerId(0), 0.1);
        idx.on_commit(ServerId(0), 0.2);
        // Completion reporting more work than remains must floor, not go
        // negative (scores must stay valid sort keys).
        idx.on_complete(ServerId(0), 5.0);
        assert_eq!(idx.remaining(ServerId(0)), 0.0);
        assert!(idx.score(ProblemId(0), ServerId(0)).unwrap() >= 100.0);
        // Draining to idle resets the ledger exactly (no float residue).
        idx.on_complete(ServerId(0), 0.0);
        assert_eq!(idx.active(ServerId(0)), 0);
        assert_eq!(idx.remaining(ServerId(0)), 0.0);
        assert_eq!(idx.score(ProblemId(0), ServerId(0)), Some(100.0));
    }

    #[test]
    fn scoring_parse_roundtrip() {
        assert_eq!(
            IndexScoring::parse("work"),
            Some(IndexScoring::RemainingWork)
        );
        assert_eq!(
            IndexScoring::parse("COUNT"),
            Some(IndexScoring::ActiveCount)
        );
        assert_eq!(IndexScoring::parse("nope"), None);
        for s in [IndexScoring::RemainingWork, IndexScoring::ActiveCount] {
            assert_eq!(IndexScoring::parse(s.name()), Some(s));
        }
    }

    #[test]
    fn k_larger_than_n_and_zero() {
        let idx = StaticIndex::new(&table());
        assert_eq!(best(&idx, 0, 100), vec![0, 1, 2]);
        assert_eq!(best(&idx, 0, 0), Vec::<u32>::new());
    }

    #[test]
    fn filter_skips_servers_without_losing_rank() {
        let idx = StaticIndex::new(&table());
        let mut out = Vec::new();
        idx.k_best(ProblemId(0), 2, &|s| s != ServerId(0), &mut out);
        assert_eq!(out.iter().map(|(s, _)| s.0).collect::<Vec<_>>(), [1, 2]);
    }

    /// The skyline (best key per problem) tracks the hooks exactly: it is
    /// the head of the ranking after every commit/retract/complete, and
    /// `None` where nothing can solve the problem.
    #[test]
    fn skyline_follows_hooks() {
        let mut idx = StaticIndex::new(&table());
        assert_eq!(
            idx.best_key(ProblemId(0)),
            Some((100.0f64.to_bits(), ServerId(0)))
        );
        assert_eq!(
            idx.best_key(ProblemId(1)),
            Some((50.0f64.to_bits(), ServerId(1)))
        );
        assert_eq!(idx.solvable_count(ProblemId(0)), 3);
        assert_eq!(idx.solvable_count(ProblemId(1)), 1);
        // Loading S0 past S1's 150 moves the P0 skyline to S1…
        idx.on_commit(ServerId(0), 200.0);
        assert_eq!(
            idx.best_key(ProblemId(0)),
            Some((150.0f64.to_bits(), ServerId(1)))
        );
        // …and a retract repairs it back (stale-then-repaired).
        idx.on_retract(ServerId(0), 200.0);
        assert_eq!(
            idx.best_key(ProblemId(0)),
            Some((100.0f64.to_bits(), ServerId(0)))
        );
        // A problem nobody solves has no skyline and zero width.
        let mut costs = table();
        costs.add_problem(Problem::new("p2", 0.0, 0.0, 0.0), vec![None, None, None]);
        let idx = StaticIndex::with_scoring(&costs, IndexScoring::default());
        assert_eq!(idx.best_key(ProblemId(2)), None);
        assert_eq!(idx.solvable_count(ProblemId(2)), 0);
    }

    #[test]
    #[should_panic(expected = "without a matching commit")]
    fn unbalanced_complete_panics() {
        let mut idx = StaticIndex::new(&table());
        idx.on_complete(ServerId(1), 0.0);
    }

    /// A downed server vanishes from every ranking and skyline; a
    /// rejoining one re-enters at its current believed-load score; and
    /// ledger hooks fired while it is down are honoured on re-entry.
    #[test]
    fn availability_moves_rankings_and_skylines() {
        let mut idx = StaticIndex::new(&table());
        assert!(idx.is_available(ServerId(0)));
        assert!(idx.set_available(ServerId(0), false));
        assert!(!idx.set_available(ServerId(0), false), "idempotent");
        assert!(!idx.is_available(ServerId(0)));
        assert_eq!(best(&idx, 0, 3), vec![1, 2]);
        assert_eq!(idx.solvable_count(ProblemId(0)), 2);
        assert_eq!(
            idx.best_key(ProblemId(0)),
            Some((150.0f64.to_bits(), ServerId(1)))
        );
        // The score query itself still answers (the ledger survives).
        assert_eq!(idx.score(ProblemId(0), ServerId(0)), Some(100.0));
        // Ledger mutations while down re-rank nothing but are kept:
        // the server re-enters at the loaded score.
        idx.on_commit(ServerId(0), 200.0);
        assert_eq!(best(&idx, 0, 3), vec![1, 2]);
        assert!(idx.set_available(ServerId(0), true));
        assert_eq!(idx.score(ProblemId(0), ServerId(0)), Some(300.0));
        assert_eq!(best(&idx, 0, 3), vec![1, 0, 2], "300 ties S2, id wins");
        // Draining the task restores the static order.
        idx.on_complete(ServerId(0), 200.0);
        assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
        // Downing every solver of P1 empties its skyline.
        idx.set_available(ServerId(1), false);
        assert_eq!(idx.best_key(ProblemId(1)), None);
        assert_eq!(idx.solvable_count(ProblemId(1)), 0);
    }

    /// A completion may arrive while the server is down (leave-drain):
    /// the ledger updates without touching the absent ranking entries.
    #[test]
    fn completion_while_down_keeps_ledger_consistent() {
        let mut idx = StaticIndex::new(&table());
        idx.on_commit(ServerId(1), 50.0);
        idx.set_available(ServerId(1), false);
        idx.on_complete(ServerId(1), 50.0);
        assert_eq!(idx.active(ServerId(1)), 0);
        assert_eq!(idx.remaining(ServerId(1)), 0.0);
        idx.set_available(ServerId(1), true);
        assert_eq!(best(&idx, 0, 3), vec![0, 1, 2]);
        assert_eq!(idx.score(ProblemId(0), ServerId(1)), Some(150.0));
    }

    /// Online extension is bit-identical to a fresh build over the
    /// extended table, for both scoring proxies.
    #[test]
    fn push_server_matches_fresh_build() {
        let mut extended = table();
        extended.push_server(vec![
            Some(PhaseCosts::new(0.0, 120.0, 0.0)),
            Some(PhaseCosts::new(0.0, 40.0, 0.0)),
        ]);
        for scoring in [IndexScoring::RemainingWork, IndexScoring::ActiveCount] {
            let mut grown = StaticIndex::with_scoring(&table(), scoring);
            grown.push_server(&[Some(120.0), Some(40.0)]);
            let fresh = StaticIndex::with_scoring(&extended, scoring);
            assert_eq!(grown.n_servers(), 4);
            for p in 0..2u32 {
                let mut a = Vec::new();
                let mut b = Vec::new();
                grown.k_best(ProblemId(p), 4, &|_| true, &mut a);
                fresh.k_best(ProblemId(p), 4, &|_| true, &mut b);
                assert_eq!(a, b, "{scoring:?} P{p}");
                assert_eq!(grown.best_key(ProblemId(p)), fresh.best_key(ProblemId(p)));
            }
            // The new server takes P1's skyline (40 < 50) and ranks by
            // load like any other afterwards.
            assert_eq!(
                grown.best_key(ProblemId(1)),
                Some((40.0f64.to_bits(), ServerId(3)))
            );
            grown.on_commit(ServerId(3), 100.0);
            assert_eq!(
                grown.best_key(ProblemId(1)),
                Some((50.0f64.to_bits(), ServerId(1)))
            );
        }
    }

    /// The incremental ranking always equals a from-scratch recompute,
    /// under both scoring proxies.
    #[test]
    fn incremental_matches_rescan_after_churn() {
        let costs = table();
        let ops: [(u32, bool, f64); 9] = [
            (0, true, 12.5),
            (1, true, 3.0),
            (0, true, 40.0),
            (2, true, 7.25),
            (0, false, 12.5),
            (1, true, 0.0),
            (1, false, 3.0),
            (2, false, 7.25),
            (1, false, 0.0),
        ];
        for scoring in [IndexScoring::RemainingWork, IndexScoring::ActiveCount] {
            let mut idx = StaticIndex::with_scoring(&costs, scoring);
            for (s, up, work) in ops {
                if up {
                    idx.on_commit(ServerId(s), work);
                } else {
                    idx.on_complete(ServerId(s), work);
                }
                for p in 0..costs.n_problems() as u32 {
                    let got = best(&idx, p, 3);
                    let mut expect: Vec<(u64, u32)> = (0..3u32)
                        .filter_map(|sv| {
                            idx.score(ProblemId(p), ServerId(sv))
                                .map(|sc| (sc.to_bits(), sv))
                        })
                        .collect();
                    expect.sort_unstable();
                    let expect: Vec<u32> = expect.into_iter().map(|(_, sv)| sv).collect();
                    assert_eq!(got, expect, "{scoring:?} problem {p} after ({s}, {up})");
                }
            }
        }
    }

    /// Work values whose sums stay exactly representable, so a commit
    /// with `work = 0` under `RemainingWork` re-ranks to the *same* key
    /// — the revive-in-place corner of the flat ladder.
    fn arb_work() -> impl Strategy<Value = f64> {
        (0u32..8).prop_map(|w| w as f64 * 0.25)
    }

    /// Mixed op stream over `n` servers: commit / complete / crash /
    /// repair, with completes only consumed when balanced by the driver.
    fn arb_index_ops(n: u32) -> impl Strategy<Value = Vec<(u32, u32, f64)>> {
        proptest::collection::vec((0u32..4, 0..n, arb_work()), 0..120)
    }

    /// The oracle: each problem's ranking as a `BTreeSet` of `(score
    /// bits, server)` keys, rebuilt from scratch out of the index's own
    /// ledgers — every available server that solves the problem, at its
    /// current score.
    fn model(idx: &StaticIndex, problem: ProblemId) -> BTreeSet<(u64, u32)> {
        (0..idx.n_servers() as u32)
            .map(ServerId)
            .filter(|&s| idx.is_available(s))
            .filter_map(|s| idx.score(problem, s).map(|sc| (sc.to_bits(), s.0)))
            .collect()
    }

    /// Three problems over `n_servers`: a third of the pairs unsolvable,
    /// clustered durations so score ties are common.
    fn model_table(n_servers: usize) -> CostTable {
        let mut costs = CostTable::new(n_servers);
        for p in 0..3usize {
            costs.add_problem(
                Problem::new(format!("p{p}"), 0.0, 0.0, 0.0),
                (0..n_servers)
                    .map(|s| {
                        ((s + p) % 3 != 0)
                            .then(|| PhaseCosts::new(0.0, 10.0 + ((s * 7 + p * 3) % 5) as f64, 0.0))
                    })
                    .collect(),
            );
        }
        costs
    }

    /// Drives an op stream into the index and diffs **every** query
    /// surface against the `BTreeSet` model after every op: skyline,
    /// ranking cardinality, full ordered walk, filtered k-best. The op
    /// volume runs far past `RUN0_CAP`, so ladder merges,
    /// revive-in-place and the stale-head advance all fire many times per
    /// case.
    fn diff_against_model(n_servers: usize, ops: &[(u32, u32, f64)]) {
        let costs = model_table(n_servers);
        for scoring in [IndexScoring::RemainingWork, IndexScoring::ActiveCount] {
            let mut idx = StaticIndex::with_scoring(&costs, scoring);
            let mut in_flight: Vec<Vec<f64>> = vec![Vec::new(); n_servers];
            for &(kind, s, work) in ops {
                let server = ServerId(s);
                match kind {
                    0 => {
                        idx.on_commit(server, work);
                        in_flight[s as usize].push(work);
                    }
                    1 => {
                        if let Some(w) = in_flight[s as usize].pop() {
                            idx.on_complete(server, w);
                        }
                    }
                    2 => {
                        idx.set_available(server, false);
                    }
                    _ => {
                        idx.set_available(server, true);
                    }
                }
                assert_matches_model(&idx, costs.n_problems(), "hooks");
            }
        }
    }

    /// Every query surface of `idx` against the `BTreeSet` model built
    /// from its own ledgers: skyline, cardinality, live count, ordered
    /// walk and filtered k-best, per problem.
    fn assert_matches_model(idx: &StaticIndex, n_problems: usize, what: &str) {
        let live = (0..idx.n_servers() as u32)
            .filter(|&s| idx.is_available(ServerId(s)))
            .count();
        assert_eq!(idx.available_count(), live, "{what}: live count");
        for p in 0..n_problems as u32 {
            let problem = ProblemId(p);
            let want = model(idx, problem);
            assert_eq!(
                idx.best_key(problem),
                want.first().map(|&(bits, sv)| (bits, ServerId(sv))),
                "{what}: skyline P{p}"
            );
            assert_eq!(
                idx.solvable_count(problem),
                want.len(),
                "{what}: cardinality P{p}"
            );
            let walk: Vec<_> = idx.ranked_iter(problem, &|_| true).collect();
            let want_walk: Vec<_> = want
                .iter()
                .map(|&(bits, sv)| (ServerId(sv), f64::from_bits(bits)))
                .collect();
            assert_eq!(walk, want_walk, "{what}: ordered walk P{p}");
            let admit = |sv: ServerId| sv.0.is_multiple_of(2);
            let mut k_best = Vec::new();
            idx.k_best(problem, 3, &admit, &mut k_best);
            let want_k: Vec<_> = want_walk
                .into_iter()
                .filter(|&(sv, _)| admit(sv))
                .take(3)
                .collect();
            assert_eq!(k_best, want_k, "{what}: filtered k-best P{p}");
        }
    }

    /// `with_ledgers` over arbitrary per-server ledgers against an index
    /// driven to the same ledgers through the hooks (one commit carrying
    /// the whole backlog, zero-work commits for the rest, a crash for
    /// the unavailable): identical ledgers and scores, and both match
    /// the model on every query surface.
    fn diff_ledgers_against_hooks(ledgers: &[(u32, f64, bool)], order: &[usize]) {
        let n_servers = ledgers.len();
        let costs = model_table(n_servers);
        for scoring in [IndexScoring::RemainingWork, IndexScoring::ActiveCount] {
            let built = StaticIndex::with_ledgers(&costs, scoring, ledgers);
            let mut driven = StaticIndex::with_scoring(&costs, scoring);
            for &s in order {
                let (active, remaining, available) = ledgers[s];
                let server = ServerId(s as u32);
                for i in 0..active {
                    driven.on_commit(server, if i == 0 { remaining } else { 0.0 });
                }
                driven.set_available(server, available);
            }
            for s in (0..n_servers as u32).map(ServerId) {
                assert_eq!(built.active(s), driven.active(s), "{scoring:?} {s}");
                assert_eq!(
                    built.remaining(s).to_bits(),
                    driven.remaining(s).to_bits(),
                    "{scoring:?} {s}"
                );
                assert_eq!(built.is_available(s), driven.is_available(s));
                for p in 0..costs.n_problems() as u32 {
                    assert_eq!(built.score(ProblemId(p), s), driven.score(ProblemId(p), s));
                    assert_eq!(
                        built.solves(ProblemId(p), s),
                        costs.costs(ProblemId(p), s).is_some()
                    );
                }
            }
            assert_matches_model(&built, costs.n_problems(), "with_ledgers");
            assert_matches_model(&driven, costs.n_problems(), "hooks");
        }
    }

    /// Arbitrary ledgers: an idle server carries no backlog (the hooks
    /// reset it to zero), a busy one any non-negative backlog.
    fn arb_ledgers(n: usize) -> impl Strategy<Value = Vec<(u32, f64, bool)>> {
        proptest::collection::vec((0u32..4, 0.0f64..1e4, proptest::bool::ANY), n).prop_map(|v| {
            v.into_iter()
                .map(|(a, r, up)| (a, if a == 0 { 0.0 } else { r }, up))
                .collect()
        })
    }

    proptest! {
        /// An index built from ledgers equals one driven to the same
        /// ledgers through the hooks, in any server order, on every
        /// query surface and under both scoring proxies — at farm widths
        /// on both sides of the ladder's first merge.
        #[test]
        fn with_ledgers_matches_hook_driven_index(
            ledgers in arb_ledgers(70),
            n in 1usize..70,
            seed in 0u64..1000,
        ) {
            let ledgers = &ledgers[..n];
            let mut order: Vec<usize> = (0..n).collect();
            order.sort_by_key(|&s| (s as u64).wrapping_mul(seed | 1).wrapping_add(seed) % 97);
            diff_ledgers_against_hooks(ledgers, &order);
        }

        /// The flat ladder is bit-identical to the `BTreeSet` model under
        /// arbitrary commit/complete/crash/repair interleavings, for
        /// every query surface and both scoring proxies.
        #[test]
        fn flat_rankings_match_btree_model(ops in arb_index_ops(7)) {
            diff_against_model(7, &ops);
        }

        /// Same property on a farm of two servers — the degenerate
        /// rankings where head maintenance and compaction corner cases
        /// concentrate.
        #[test]
        fn flat_rankings_match_btree_model_tiny_farm(ops in arb_index_ops(2)) {
            diff_against_model(2, &ops);
        }
    }

    /// Deterministic hammer past the proptest budget: thousands of
    /// hooks on one index, forcing many compaction cycles, with every
    /// query diffed against the `BTreeSet` model at every step.
    #[test]
    fn flat_ladder_survives_long_churn() {
        let mut state = 0x243F_6A88_85A3_08D3u64;
        let mut next = move |m: u64| {
            // xorshift64* — deterministic, dependency-free.
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_F491_4F6C_DD1D) % m
        };
        let mut ops = Vec::with_capacity(3000);
        for _ in 0..3000 {
            ops.push((next(4) as u32, next(7) as u32, next(8) as f64 * 0.25));
        }
        diff_against_model(7, &ops);
    }
}
