//! Deterministic partitioning of the server farm into shards.
//!
//! The shard federation (see `cas-middleware`) splits the agent's stage-1
//! state — static index and selector — into per-shard engines so that no
//! ranking or stage-1 walk scales with the whole farm. [`ShardMap`] is the
//! partition itself: a pure function of `(n_servers, n_shards)`, with no
//! dependence on machine parallelism, so a sharded experiment is
//! reproducible bit for bit on any host.
//!
//! The partition is **contiguous**: shard `k` owns a block of consecutive
//! global server ids. Two properties follow, and the federation relies on
//! both:
//!
//! * global id order equals `(shard, local id)` lexicographic order, so
//!   merging per-shard shortlists in shard order yields a list sorted by
//!   global id — the order the heuristics' tie-breaks require — and
//! * the global → local translation is a subtraction, not a table lookup.

use crate::ids::ServerId;

/// A deterministic contiguous partition of `n_servers` into shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardMap {
    n_servers: usize,
    /// Start of each shard's block plus a final sentinel equal to
    /// `n_servers`: shard `k` owns global ids `starts[k]..starts[k + 1]`.
    starts: Vec<u32>,
}

impl ShardMap {
    /// Partitions `n_servers` into `n_shards` near-equal contiguous
    /// blocks (the first `n_servers % n_shards` shards are one larger).
    /// `n_shards` is clamped to `[1, max(n_servers, 1)]` so every shard is
    /// non-empty.
    pub fn new(n_servers: usize, n_shards: usize) -> Self {
        let n_shards = n_shards.clamp(1, n_servers.max(1));
        let base = n_servers / n_shards;
        let extra = n_servers % n_shards;
        let mut starts = Vec::with_capacity(n_shards + 1);
        let mut at = 0usize;
        for k in 0..n_shards {
            starts.push(at as u32);
            at += base + usize::from(k < extra);
        }
        debug_assert_eq!(at, n_servers);
        starts.push(n_servers as u32);
        ShardMap { n_servers, starts }
    }

    /// Re-partitions around the current live population: a shard whose
    /// live-server count fell below `lo` merges into its right neighbour
    /// (the last shard merges left), and one that outgrew `hi` splits at
    /// its live midpoint — both repeatedly, so every resulting shard is
    /// back inside the band where possible. Blocks stay contiguous and
    /// non-empty, dead servers stay owned by whichever block covers
    /// them, and shards already inside the band keep their exact
    /// boundaries — the federation rebuilds only the blocks that moved.
    ///
    /// Returns `None` when the partition is already within the band (no
    /// boundary moves); otherwise the new map.
    /// Callers should keep `hi ≥ 2·lo` so a freshly split shard cannot
    /// immediately re-merge.
    ///
    /// # Panics
    /// Panics unless `live` has one flag per server and `lo <= hi`.
    pub fn rebalanced(&self, live: &[bool], lo: usize, hi: usize) -> Option<ShardMap> {
        assert_eq!(live.len(), self.n_servers, "one liveness flag per server");
        let lo = lo.max(1);
        assert!(lo <= hi, "size band must satisfy lo <= hi");
        if self.n_servers == 0 {
            return None;
        }
        // Prefix sums: pre[i] = live servers with global id < i.
        let mut pre = Vec::with_capacity(self.n_servers + 1);
        pre.push(0usize);
        for (i, &up) in live.iter().enumerate() {
            pre.push(pre[i] + usize::from(up));
        }
        let live_in = |a: u32, b: u32| pre[b as usize] - pre[a as usize];

        let mut blocks: Vec<(u32, u32)> = (0..self.n_shards())
            .map(|k| (self.starts[k], self.starts[k + 1]))
            .collect();

        // Merge pass. A merged block is re-examined in place: it may
        // still be undersized (e.g. two dead neighbours).
        let mut k = 0;
        while blocks.len() > 1 && k < blocks.len() {
            let (a, b) = blocks[k];
            if live_in(a, b) < lo {
                if k + 1 < blocks.len() {
                    let (_, c) = blocks.remove(k + 1);
                    blocks[k] = (a, c);
                } else {
                    let (p, _) = blocks.remove(k - 1);
                    k -= 1;
                    blocks[k] = (p, b);
                }
            } else {
                k += 1;
            }
        }

        // Split pass. The left half is re-examined in place, so a block
        // that grew far past the band splits as often as needed.
        let mut k = 0;
        while k < blocks.len() {
            let (a, b) = blocks[k];
            let total = live_in(a, b);
            if total > hi && b - a >= 2 {
                // Cut right after the ⌊total/2⌋-th live server: both
                // halves keep at least one live server, and the cut is
                // strictly inside the block.
                let half = total / 2;
                let mut seen = 0usize;
                let mut cut = a + 1;
                for s in a..b {
                    if live[s as usize] {
                        seen += 1;
                        if seen == half {
                            cut = s + 1;
                            break;
                        }
                    }
                }
                blocks.insert(k + 1, (cut, b));
                blocks[k] = (a, cut);
            } else {
                k += 1;
            }
        }

        let starts: Vec<u32> = blocks
            .iter()
            .map(|&(a, _)| a)
            .chain(std::iter::once(self.n_servers as u32))
            .collect();
        if starts == self.starts {
            return None;
        }
        Some(ShardMap {
            n_servers: self.n_servers,
            starts,
        })
    }

    /// The default shard count for an `n`-server farm: one shard per ~640
    /// servers, capped at 1024. Small farms stay unsharded (the federation
    /// only pays off once per-engine state outgrows the cache), and the
    /// count is a function of the platform alone — never of the host —
    /// so `--shards auto` is reproducible across machines. Above ~16
    /// shards the router walks the federation through a [`ShardTree`]
    /// (groups of ~[`ShardTree::DEFAULT_GROUP_SHARDS`] shards), which is
    /// what makes lifting the old 16-shard cap affordable: the lazy merge
    /// prunes whole groups, so per-decision cost grows with the group
    /// count, not the shard count.
    pub fn auto_shards(n_servers: usize) -> usize {
        n_servers.div_ceil(640).clamp(1, 1024)
    }

    /// Extends the partition with one new server, appended to the **last**
    /// shard's block: the new global id is `n_servers`, contiguity is
    /// preserved, and no existing boundary moves — every other shard's
    /// engine is untouched by the growth. Returns the new server's id.
    pub fn push_server(&mut self) -> ServerId {
        let id = ServerId(self.n_servers as u32);
        self.n_servers += 1;
        *self.starts.last_mut().expect("sentinel present") = self.n_servers as u32;
        id
    }

    /// Servers covered by the partition.
    pub fn n_servers(&self) -> usize {
        self.n_servers
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.starts.len() - 1
    }

    /// The shard owning `server`.
    ///
    /// # Panics
    /// Panics if `server` is outside the partition.
    pub fn owner(&self, server: ServerId) -> usize {
        assert!(
            (server.index()) < self.n_servers,
            "{server} outside the {}-server shard map",
            self.n_servers
        );
        // Blocks are near-equal, so the block index is a division away;
        // the remainder shards at the front are one larger, which the
        // partition_point handles exactly (starts is sorted).
        self.starts
            .partition_point(|&s| s as usize <= server.index())
            - 1
    }

    /// The first global id of `shard`'s block.
    pub fn start(&self, shard: usize) -> u32 {
        self.starts[shard]
    }

    /// The global ids owned by `shard`, as a range.
    pub fn members(&self, shard: usize) -> std::ops::Range<u32> {
        self.starts[shard]..self.starts[shard + 1]
    }

    /// Number of servers in `shard`.
    pub fn len(&self, shard: usize) -> usize {
        (self.starts[shard + 1] - self.starts[shard]) as usize
    }

    /// Translates a global server id to its shard-local id.
    pub fn to_local(&self, shard: usize, server: ServerId) -> ServerId {
        debug_assert_eq!(self.owner(server), shard, "{server} not owned here");
        ServerId(server.0 - self.starts[shard])
    }
}

/// The second level of the federation: a deterministic contiguous
/// grouping of shard indices. Where [`ShardMap`] partitions *servers
/// into shards*, `ShardTree` partitions *shards into groups* so the
/// router's lazy skyline walk can prune a whole group — dozens of
/// member shards — with one comparison against the group's cached
/// skyline. Like the map, the tree is a pure function of its inputs
/// (`n_shards`, `group_size`): no host dependence, so grouped runs
/// reproduce bit for bit anywhere.
///
/// Groups are near-equal contiguous runs of shard indices (the first
/// `n_shards % n_groups` groups are one shard larger), mirroring how
/// `ShardMap` blocks servers — so group order equals shard order equals
/// global server-id order, and every merge that concatenates per-group
/// results in group order is automatically in global id order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardTree {
    n_shards: usize,
    /// First shard index of each group plus a final sentinel equal to
    /// `n_shards`: group `g` owns shards `starts[g]..starts[g + 1]`.
    starts: Vec<u32>,
}

impl ShardTree {
    /// Default fan-out: ~16 shards per group. At the `auto_shards`
    /// density (one shard per ~640 servers) one group covers ~10k
    /// servers, so a 100k farm walks ~10 group skylines instead of ~157
    /// shard skylines per decision.
    pub const DEFAULT_GROUP_SHARDS: usize = 16;

    /// Groups `n_shards` shards into near-equal contiguous runs of at
    /// most `group_size` shards (`group_size` is clamped to `[1,
    /// max(n_shards, 1)]`; the group count is `n_shards / group_size`,
    /// rounded up, so no group exceeds the requested fan-out).
    pub fn new(n_shards: usize, group_size: usize) -> Self {
        let group_size = group_size.clamp(1, n_shards.max(1));
        let n_groups = n_shards.div_ceil(group_size).max(1);
        let base = n_shards / n_groups;
        let extra = n_shards % n_groups;
        let mut starts = Vec::with_capacity(n_groups + 1);
        let mut at = 0usize;
        for g in 0..n_groups {
            starts.push(at as u32);
            at += base + usize::from(g < extra);
        }
        debug_assert_eq!(at, n_shards);
        starts.push(n_shards as u32);
        ShardTree { n_shards, starts }
    }

    /// Number of shards covered by the tree.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.starts.len() - 1
    }

    /// The shard indices owned by `group`, as a range.
    pub fn members(&self, group: usize) -> std::ops::Range<usize> {
        self.starts[group] as usize..self.starts[group + 1] as usize
    }

    /// Number of shards in `group`.
    pub fn len(&self, group: usize) -> usize {
        (self.starts[group + 1] - self.starts[group]) as usize
    }

    /// Whether the tree is degenerate (zero or one group): the group walk
    /// has nothing to prune, so the router falls back to the flat walk.
    pub fn is_empty(&self) -> bool {
        self.n_groups() <= 1
    }

    /// The group owning `shard`.
    ///
    /// # Panics
    /// Panics if `shard` is outside the tree.
    pub fn group_of(&self, shard: usize) -> usize {
        assert!(
            shard < self.n_shards,
            "shard {shard} outside the {}-shard tree",
            self.n_shards
        );
        self.starts.partition_point(|&s| s as usize <= shard) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_near_equal_blocks() {
        let map = ShardMap::new(10, 3);
        assert_eq!(map.n_shards(), 3);
        assert_eq!(map.members(0), 0..4); // 10 % 3 = 1 extra up front
        assert_eq!(map.members(1), 4..7);
        assert_eq!(map.members(2), 7..10);
        assert_eq!(map.len(0) + map.len(1) + map.len(2), 10);
    }

    #[test]
    fn owner_and_translation_roundtrip() {
        let map = ShardMap::new(1000, 7);
        for s in 0..1000u32 {
            let server = ServerId(s);
            let shard = map.owner(server);
            assert!(map.members(shard).contains(&s));
            let local = map.to_local(shard, server);
            assert_eq!(map.start(shard) + local.0, s);
        }
    }

    #[test]
    fn shard_count_clamps() {
        assert_eq!(ShardMap::new(3, 8).n_shards(), 3, "no empty shards");
        assert_eq!(ShardMap::new(8, 0).n_shards(), 1, "zero means one");
        assert_eq!(ShardMap::new(0, 4).n_shards(), 1, "empty farm, one shard");
        assert_eq!(ShardMap::new(0, 4).members(0), 0..0);
    }

    #[test]
    fn single_shard_is_identity() {
        let map = ShardMap::new(64, 1);
        assert_eq!(map.members(0), 0..64);
        for s in 0..64u32 {
            assert_eq!(map.to_local(0, ServerId(s)), ServerId(s));
        }
    }

    #[test]
    fn auto_shards_scales_with_farm() {
        assert_eq!(ShardMap::auto_shards(0), 1);
        assert_eq!(ShardMap::auto_shards(100), 1);
        assert_eq!(ShardMap::auto_shards(640), 1);
        assert_eq!(ShardMap::auto_shards(641), 2);
        assert_eq!(ShardMap::auto_shards(1000), 2);
        assert_eq!(ShardMap::auto_shards(10_000), 16);
        assert_eq!(ShardMap::auto_shards(100_000), 157, "past the old cap");
        assert_eq!(ShardMap::auto_shards(1_000_000), 1024, "capped");
    }

    #[test]
    fn push_server_grows_last_shard_only() {
        let mut map = ShardMap::new(10, 3); // 0..4, 4..7, 7..10
        let id = map.push_server();
        assert_eq!(id, ServerId(10));
        assert_eq!(map.n_servers(), 11);
        assert_eq!(map.members(0), 0..4, "earlier blocks untouched");
        assert_eq!(map.members(1), 4..7);
        assert_eq!(map.members(2), 7..11, "last block grew");
        assert_eq!(map.owner(ServerId(10)), 2);
        assert_eq!(map.to_local(2, ServerId(10)), ServerId(3));
        // Growth composes: a second push keeps appending.
        assert_eq!(map.push_server(), ServerId(11));
        assert_eq!(map.members(2), 7..12);
    }

    #[test]
    fn tree_groups_are_contiguous_and_near_equal() {
        let tree = ShardTree::new(10, 3); // 4 groups: 3+3+2+2
        assert_eq!(tree.n_groups(), 4);
        assert_eq!(tree.members(0), 0..3);
        assert_eq!(tree.members(1), 3..6);
        assert_eq!(tree.members(2), 6..8);
        assert_eq!(tree.members(3), 8..10);
        assert!((0..tree.n_groups()).all(|g| tree.len(g) <= 3));
        for shard in 0..10 {
            let g = tree.group_of(shard);
            assert!(tree.members(g).contains(&shard));
        }
    }

    #[test]
    fn tree_clamps_and_degenerates() {
        assert_eq!(ShardTree::new(16, 16).n_groups(), 1);
        assert!(ShardTree::new(16, 16).is_empty(), "one group: flat walk");
        assert_eq!(ShardTree::new(16, 4).n_groups(), 4);
        assert!(!ShardTree::new(16, 4).is_empty());
        assert_eq!(ShardTree::new(1, 16).n_groups(), 1);
        assert_eq!(ShardTree::new(0, 4).n_groups(), 1, "empty tree, one group");
        assert_eq!(ShardTree::new(0, 4).members(0), 0..0);
        assert_eq!(ShardTree::new(5, 0).n_groups(), 5, "zero clamps to one");
        // The 100k-farm shape: 157 auto shards, default fan-out.
        let shards = ShardMap::auto_shards(100_000);
        let tree = ShardTree::new(shards, ShardTree::DEFAULT_GROUP_SHARDS);
        assert_eq!(tree.n_groups(), 10);
        assert_eq!(
            (0..tree.n_groups()).map(|g| tree.len(g)).sum::<usize>(),
            shards
        );
    }

    #[test]
    fn rebalance_within_band_is_identity() {
        let map = ShardMap::new(12, 3);
        assert_eq!(map.rebalanced(&[true; 12], 2, 8), None);
        // A crash that keeps every shard inside the band moves nothing.
        let mut live = [true; 12];
        live[5] = false;
        assert_eq!(map.rebalanced(&live, 2, 8), None);
    }

    #[test]
    fn undersized_shard_merges_right_and_last_merges_left() {
        let map = ShardMap::new(12, 3); // blocks 0..4, 4..8, 8..12
                                        // Kill most of the middle shard: it merges into the right one.
        let mut live = [true; 12];
        live[4..7].fill(false);
        let out = map.rebalanced(&live, 2, 8).expect("must rebalance");
        assert_eq!(out.n_shards(), 2);
        assert_eq!(out.members(0), 0..4);
        assert_eq!(out.members(1), 4..12);
        // Kill most of the *last* shard instead: it merges left.
        let mut live = [true; 12];
        live[9..12].fill(false);
        let out = map.rebalanced(&live, 2, 8).expect("must rebalance");
        assert_eq!(out.members(0), 0..4);
        assert_eq!(out.members(1), 4..12);
    }

    #[test]
    fn oversized_shard_splits_at_live_midpoint() {
        let map = ShardMap::new(12, 1);
        let out = map.rebalanced(&[true; 12], 2, 8).expect("must split");
        assert_eq!(out.n_shards(), 2);
        assert_eq!(out.members(0), 0..6);
        assert_eq!(out.members(1), 6..12);
        // Dead servers do not count toward the midpoint: with the left
        // half of the block dead, the cut lands where the *live* mass
        // halves, not at the geometric middle.
        let mut live = [true; 12];
        live[0..4].fill(false);
        let out = map.rebalanced(&live, 2, 6).expect("must split");
        assert_eq!(out.n_shards(), 2);
        assert_eq!(out.members(0), 0..8, "4 dead + 4 live on the left");
        assert_eq!(out.members(1), 8..12);
    }

    #[test]
    fn far_oversized_shard_splits_repeatedly() {
        let map = ShardMap::new(32, 1);
        let out = map.rebalanced(&[true; 32], 2, 8).expect("must split");
        assert!(out.n_shards() >= 4);
        for k in 0..out.n_shards() {
            assert!(out.len(k) <= 8, "shard {k} still oversized");
        }
        // Partition invariants survive: contiguous cover, roundtrip ids.
        for s in 0..32u32 {
            let shard = out.owner(ServerId(s));
            assert!(out.members(shard).contains(&s));
            assert_eq!(out.start(shard) + out.to_local(shard, ServerId(s)).0, s);
        }
    }

    #[test]
    fn fully_dead_farm_collapses_to_one_shard() {
        let map = ShardMap::new(12, 3);
        let out = map.rebalanced(&[false; 12], 2, 8).expect("must merge");
        assert_eq!(out.n_shards(), 1);
        assert_eq!(out.members(0), 0..12);
        // And a second call is stable (one shard cannot merge further).
        assert_eq!(out.rebalanced(&[false; 12], 2, 8), None);
        assert_eq!(ShardMap::new(0, 1).rebalanced(&[], 1, 2), None);
    }

    #[test]
    fn global_order_is_shard_lexicographic() {
        let map = ShardMap::new(23, 5);
        let mut seen = Vec::new();
        for shard in 0..map.n_shards() {
            for local in 0..map.len(shard) as u32 {
                seen.push(map.start(shard) + local);
            }
        }
        assert_eq!(seen, (0..23).collect::<Vec<_>>());
    }
}
