//! The session-wide oracle-response cache, and [`CachedOracle`], the
//! exact chip answering through it.
//!
//! Of the oracle stacks a cell can attack, only the bare exact chip
//! answers a block the same way twice: noisy answers are samples and
//! rotating answers follow a per-chip key stream. So only deterministic
//! static cells answer through the cache, and what hits is a **replay**:
//! a deterministic cell's later trial asks its first trial's queries
//! again, and so does a warm session re-running a grid. Distinct cells
//! rarely ask the same block twice.
//!
//! The cache is one `Mutex<HashMap>` with no cap. A key is a fingerprint
//! plus the block's valid patterns packed as one dense bit string and the
//! pattern count; a value is the packed output lanes, immutable once
//! inserted (the exact chip always answers the same), so the protocol is
//! a get-or-insert whose simulation runs outside the lock. A full-width
//! block lives under the netlist fingerprint,
//! [`Netlist::structural_hash`]: one pass over the raw arena, names left
//! out, taken once per design and memoized by the netlist.
//!
//! **Cone keys.** A cone-projected attack hands the exact chip a cone
//! block, the chip inputs its lanes drive and the outputs the cloaked
//! cells reach ([`Oracle::query_cone`]); every other input is held at 0
//! by the call's contract. [`CachedOracle::query_cone`] keys the cone
//! block as given, every lane of it (a few words at an ~8k-input design
//! with a small cone), under one fingerprint that mixes the netlist
//! fingerprint, the input list and the output list under a salt of its
//! own. A cone entry therefore never aliases a full-width entry (even for
//! a cone listing every input) or an entry of another input or output
//! list, and holds only the listed outputs' lanes. A miss asks the exact
//! chip for its cone answer, and DIP-loop re-queries across trials hit on
//! keys a handful of words wide.

use crate::job::hash_mix;
use gshe_attacks::{Oracle, OracleStack};
use gshe_logic::{Netlist, PatternBlock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key: the netlist or cone fingerprint, then the packed block ([`pack`]).
type Key = (u64, Vec<u64>);

/// A session-wide cache of exact-chip block answers, safe to share across
/// workers.
#[derive(Debug, Default)]
pub struct OracleCache {
    map: Mutex<HashMap<Key, Vec<u64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    /// Hits/misses of cone-keyed probes (a subset of `hits`/`misses`).
    cone_hits: AtomicU64,
    cone_misses: AtomicU64,
    /// Widest cone key probed so far, in 64-bit words.
    cone_key_words: AtomicU64,
}

impl OracleCache {
    /// An empty cache behind an [`Arc`], ready to hand to workers.
    pub fn shared() -> Arc<OracleCache> {
        Arc::new(OracleCache::default())
    }

    /// The answer cached under `(fingerprint, key)`, computing and
    /// inserting it via `compute` on a miss. `cone` attributes the probe
    /// to the cone-keyed statistics.
    ///
    /// `compute` runs *outside* the lock so concurrent workers never
    /// serialize their simulations; entries are immutable, so the rare
    /// duplicate compute under a race is harmless (first insert wins).
    fn get_or_insert(
        &self,
        fingerprint: u64,
        key: Vec<u64>,
        cone: bool,
        compute: impl FnOnce() -> Vec<u64>,
    ) -> Vec<u64> {
        if cone {
            self.cone_key_words
                .fetch_max(key.len() as u64, Ordering::Relaxed);
        }
        let key = (fingerprint, key);
        if let Some(hit) = self.map.lock().unwrap().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            gshe_obs::count("cache.hits", 1);
            if cone {
                self.cone_hits.fetch_add(1, Ordering::Relaxed);
                gshe_obs::count("cache.cone_hits", 1);
            }
            return hit.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        gshe_obs::count("cache.misses", 1);
        if cone {
            self.cone_misses.fetch_add(1, Ordering::Relaxed);
            gshe_obs::count("cache.cone_misses", 1);
        }
        let value = compute();
        self.map
            .lock()
            .unwrap()
            .entry(key)
            .or_insert_with(|| value.clone());
        value
    }

    /// (cache hits, cache misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// (hits, misses) of cone-keyed probes so far — the subset of
    /// [`OracleCache::stats`] answered through
    /// [`CachedOracle::query_cone`].
    pub fn cone_stats(&self) -> (u64, u64) {
        (
            self.cone_hits.load(Ordering::Relaxed),
            self.cone_misses.load(Ordering::Relaxed),
        )
    }

    /// Widest cone key probed so far, in 64-bit words (0 when no cone
    /// probe has happened). At a small cone this stays a handful of
    /// words even on 8k-input designs — the key-width win the cone path
    /// exists for.
    pub fn cone_key_words(&self) -> u64 {
        self.cone_key_words.load(Ordering::Relaxed)
    }

    /// Number of distinct blocks cached.
    pub fn entries(&self) -> u64 {
        self.map.lock().unwrap().len() as u64
    }
}

/// Packs the valid patterns of `block` into key words: lane after lane,
/// the `count` valid bits of each lane as one dense bit string, then the
/// pattern count.
///
/// Bits beyond `count` are never read, so blocks that differ only there
/// share a key, and the count word keeps a block apart from its prefixes.
/// A key over `w` lanes is `⌈count·w/64⌉ + 1` words: at most `w + 1`, and
/// `⌈w/64⌉ + 1` for the single-pattern query of a DIP round.
fn pack(block: &PatternBlock) -> Vec<u64> {
    let count = block.count;
    let mask = block.valid_mask();
    let mut words = vec![0u64; (block.lanes.len() * count).div_ceil(64) + 1];
    for (c, &lane) in block.lanes.iter().enumerate() {
        let bits = lane & mask;
        let (word, shift) = (c * count / 64, c * count % 64);
        words[word] |= bits << shift;
        if shift + count > 64 {
            words[word + 1] |= bits >> (64 - shift);
        }
    }
    *words.last_mut().expect("the count word") = count as u64;
    words
}

/// The fingerprint the cone keys of one (`inputs`, `outputs`) pair live
/// under: the netlist's mixed with both lists under a salt, so cone
/// entries never alias full-width entries or another pair's.
fn cone_fingerprint(netlist_fingerprint: u64, inputs: &[usize], outputs: &[usize]) -> u64 {
    let mut h = hash_mix(netlist_fingerprint ^ 0xC04E_1B17_5A17_ED01);
    for list in [inputs, outputs] {
        h = hash_mix(h ^ list.len() as u64);
        for &i in list {
            h = hash_mix(h ^ i as u64);
        }
    }
    h
}

/// The exact chip over one campaign netlist, answering through the
/// session's [`OracleCache`] and simulating only on a miss. It is the
/// only cached oracle, because the exact chip's answers are the only ones
/// that can be memoized. Query accounting is per instance and per
/// pattern, hit or miss.
#[derive(Debug, Clone)]
pub struct CachedOracle<'a> {
    inner: OracleStack<'a>,
    cache: Arc<OracleCache>,
    /// The netlist's fingerprint.
    fingerprint: u64,
    count: u64,
}

impl<'a> CachedOracle<'a> {
    /// The exact chip for `netlist`.
    pub fn over(netlist: &'a Netlist, cache: Arc<OracleCache>) -> Self {
        CachedOracle {
            inner: OracleStack::exact(netlist),
            cache,
            fingerprint: netlist.structural_hash(),
            count: 0,
        }
    }

    /// [`CachedOracle::over`]: every [`Oracle::query_cone`] call carries
    /// its own cone inputs, so `_cone_inputs` is unused. Kept, with its
    /// signature, for perfbench's frozen traced replay; ROADMAP item 1's
    /// benchmark change removes that last caller.
    pub fn over_cone(
        netlist: &'a Netlist,
        cache: Arc<OracleCache>,
        _cone_inputs: Vec<usize>,
    ) -> Self {
        Self::over(netlist, cache)
    }

    /// The answer to `block` under `(fingerprint, key)`, through the
    /// cache: counts the patterns, and on a miss asks the exact chip
    /// through `compute`. `cone` attributes the probe to the cone-keyed
    /// statistics.
    fn answer(
        &mut self,
        block: &PatternBlock,
        fingerprint: u64,
        key: Vec<u64>,
        cone: bool,
        compute: impl FnOnce(&mut OracleStack<'a>) -> Vec<u64>,
    ) -> Vec<u64> {
        self.count += block.count as u64;
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let inner = &mut self.inner;
        let out = self
            .cache
            .get_or_insert(fingerprint, key, cone, || compute(inner));
        if let Some(t0) = timed {
            gshe_obs::record("cache.query_block_ns", t0.elapsed().as_nanos() as u64);
        }
        out
    }
}

impl Oracle for CachedOracle<'_> {
    /// Keys the block on every input under the netlist fingerprint.
    ///
    /// # Panics
    ///
    /// Panics on a block whose width is not the netlist's input count.
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        assert_eq!(
            block.lanes.len(),
            self.inner.num_inputs(),
            "cached oracle query has the wrong number of inputs"
        );
        let key = pack(block);
        self.answer(block, self.fingerprint, key, false, |inner| {
            inner.query_block(block)
        })
    }

    /// Keys the cone block as given, on every lane, under the fingerprint
    /// of the netlist, `inputs` and `outputs` under a salt of its own; the
    /// entry holds only the listed outputs' lanes, and a miss asks the
    /// exact chip's cone answer.
    ///
    /// # Panics
    ///
    /// Panics on a block whose width is not `inputs.len()`, and as
    /// [`OracleStack`]'s `query_cone` on a miss.
    fn query_cone(
        &mut self,
        block: &PatternBlock,
        inputs: &[usize],
        outputs: &[usize],
    ) -> Vec<u64> {
        assert_eq!(
            block.lanes.len(),
            inputs.len(),
            "cached cone query has the wrong number of inputs"
        );
        let fingerprint = cone_fingerprint(self.fingerprint, inputs, outputs);
        let key = pack(block);
        self.answer(block, fingerprint, key, true, |inner| {
            inner.query_cone(block, inputs, outputs)
        })
    }

    fn num_inputs(&self) -> usize {
        self.inner.num_inputs()
    }

    fn num_outputs(&self) -> usize {
        self.inner.num_outputs()
    }

    fn queries(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gshe_logic::bench_format::{parse_bench, C17_BENCH};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Every c17 input pattern, pattern `p` setting input `k` to bit `k`
    /// of `p`.
    fn c17_patterns() -> Vec<Vec<bool>> {
        (0..32u32)
            .map(|p| (0..5).map(|k| (p >> k) & 1 == 1).collect())
            .collect()
    }

    #[test]
    fn cache_hits_on_repeat_queries_across_oracles() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let pattern = [true, false, true, false, true];

        let mut a = CachedOracle::over(&nl, Arc::clone(&cache));
        let ya = a.query(&pattern);
        assert_eq!(cache.stats(), (0, 1));
        assert_eq!(cache.entries(), 1);

        // A *different* oracle instance over the same netlist hits.
        let mut b = CachedOracle::over(&nl, Arc::clone(&cache));
        let yb = b.query(&pattern);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.entries(), 1);
        assert_eq!(ya, yb);
        assert_eq!(ya, nl.evaluate(&pattern));

        // Query counting is per-oracle, unaffected by caching.
        assert_eq!(a.queries(), 1);
        assert_eq!(b.queries(), 1);
    }

    #[test]
    fn block_key_ignores_garbage_bits_and_keeps_count() {
        // Two logically identical partial blocks that differ only in the
        // invalid-lane garbage must share one entry; a different count is
        // a different key.
        let a = PatternBlock {
            lanes: vec![0b01, 0b10, 0b11, 0b00, 0b01],
            count: 2,
        };
        let mut garbage = a.clone();
        for lane in &mut garbage.lanes {
            *lane |= 0xFFFF_0000;
        }
        assert_eq!(pack(&a), pack(&garbage));
        let longer = PatternBlock {
            lanes: a.lanes.clone(),
            count: 3,
        };
        assert_ne!(pack(&a), pack(&longer));

        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let ya = o.query_block(&a);
        let yb = o.query_block(&garbage);
        assert_eq!(cache.stats(), (1, 1), "garbage bits must not split keys");
        assert_eq!(ya, yb);
    }

    #[test]
    fn single_pattern_keys_are_dense_and_shared_with_scalar_queries() {
        // The single-pattern hot path (one query per DIP) must not pay
        // n-word keys: a single pattern packs to ⌈n/64⌉ + 1 words, and a
        // scalar query is a 1-pattern block query, so both share one
        // entry.
        let one = PatternBlock::from_patterns(&[vec![true, false, true, false, true]]);
        assert_eq!(pack(&one), vec![0b10101, 1]);

        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let y_scalar = o.query(&[true, false, true, false, true]);
        let lanes = o.query_block(&one);
        assert_eq!(cache.stats(), (1, 1), "scalar and 1-block share a key");
        for (bit, lane) in y_scalar.iter().zip(&lanes) {
            assert_eq!(*bit, lane & 1 == 1);
        }
    }

    #[test]
    #[should_panic(expected = "wrong number of inputs")]
    fn queries_of_another_width_are_refused() {
        // Keys carry no width, so a block of another width must never
        // reach the map: [T] would otherwise read c17's answer to
        // [T, F, F, F, F].
        let nl = parse_bench(C17_BENCH).unwrap();
        let mut o = CachedOracle::over(&nl, OracleCache::shared());
        o.query(&[true, false, false, false, false]);
        o.query(&[true]);
    }

    #[test]
    fn keys_agree_exactly_when_counts_and_valid_columns_agree() {
        // Random block pairs, each of the second drawn to agree with the
        // first or not in one of several ways. Both are cut to a column
        // set (every input, or a strict subset as a cone block takes it):
        // the keys must be equal exactly when the counts and the valid
        // patterns on those columns are, whatever lies beyond `count` or
        // outside the columns, and every key is ⌈count·w/64⌉ + 1 words.
        let mut rng = StdRng::seed_from_u64(24);
        let (mut equal, mut unequal) = (0, 0);
        for n in [0usize, 1, 63, 64, 65] {
            let strict_subset: Vec<usize> = (0..n).filter(|i| i % 3 != 1).collect();
            let column_sets = if n == 0 {
                vec![Vec::new()]
            } else {
                vec![(0..n).collect(), strict_subset]
            };
            for columns in &column_sets {
                for _ in 0..200 {
                    let count = rng.gen_range(1..=64);
                    let a = PatternBlock::random_n(n, count, &mut rng);
                    let mut b = a.clone();
                    match rng.gen_range(0..4) {
                        // The same valid patterns, other garbage beyond
                        // `count` and other bits outside the columns.
                        0 => {
                            let mask = a.valid_mask();
                            for (i, lane) in b.lanes.iter_mut().enumerate() {
                                let fresh: u64 = rng.gen();
                                *lane = if columns.contains(&i) {
                                    (*lane & mask) | (fresh & !mask)
                                } else {
                                    fresh
                                };
                            }
                        }
                        // One valid bit flipped, on any input.
                        1 if n > 0 => {
                            let (i, k) = (rng.gen_range(0..n), rng.gen_range(0..count));
                            b.lanes[i] ^= 1 << k;
                        }
                        // Another count over the same lanes.
                        2 => b.count = rng.gen_range(1..=64),
                        // An unrelated block.
                        _ => b = PatternBlock::random_n(n, rng.gen_range(1..=64), &mut rng),
                    }
                    let agree = a.count == b.count
                        && columns
                            .iter()
                            .all(|&i| a.lanes[i] & a.valid_mask() == b.lanes[i] & b.valid_mask());
                    let on_columns = |block: &PatternBlock| PatternBlock {
                        lanes: columns.iter().map(|&i| block.lanes[i]).collect(),
                        count: block.count,
                    };
                    let (ka, kb) = (pack(&on_columns(&a)), pack(&on_columns(&b)));
                    assert_eq!(ka == kb, agree, "n={n} w={} a={a:?} b={b:?}", columns.len());
                    for (block, key) in [(&a, &ka), (&b, &kb)] {
                        assert_eq!(key.len(), (block.count * columns.len()).div_ceil(64) + 1);
                    }
                    if agree {
                        equal += 1;
                    } else {
                        unequal += 1;
                    }
                }
            }
        }
        assert!(
            equal > 100 && unequal > 100,
            "{equal} equal, {unequal} unequal"
        );
    }

    #[test]
    fn block_queries_hit_count_and_match_simulation() {
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let patterns = &c17_patterns()[..10];
        let block = PatternBlock::from_patterns(patterns);
        let lanes = o.query_block(&block);
        assert_eq!(o.queries(), 10);
        assert_eq!(cache.stats(), (0, 1), "one probe per block, not ten");
        for (k, p) in patterns.iter().enumerate() {
            let y = nl.evaluate(p);
            for (i, &bit) in y.iter().enumerate() {
                assert_eq!(bit, (lanes[i] >> k) & 1 == 1);
            }
        }
        // The identical block replayed (e.g. a deterministic cell's second
        // trial) costs one hash lookup and zero simulation.
        let again = o.query_block(&block);
        assert_eq!(again, lanes);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(o.queries(), 20);
    }

    /// `block`'s lanes scattered onto `inputs` in a zero-filled c17-wide
    /// block: the full-width block a cone block stands for.
    fn scatter(block: &PatternBlock, inputs: &[usize]) -> PatternBlock {
        let mut lanes = vec![0u64; 5];
        for (&i, &lane) in inputs.iter().zip(&block.lanes) {
            lanes[i] = lane;
        }
        PatternBlock {
            lanes,
            count: block.count,
        }
    }

    #[test]
    fn output_subsets_are_entries_of_their_own() {
        // One cone block asked for outputs [0], [1] and [0, 1]: three
        // misses and three entries, each the gather of the exact chip's
        // full answer, so no subset aliases another; the same block and
        // outputs again hits, and a full answer is an entry of its own.
        // Queries count per pattern, hit or miss.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let all: Vec<usize> = (0..5).collect();
        let block = PatternBlock::from_patterns(&c17_patterns()[..10]);
        let full = OracleStack::exact(&nl).query_block(&block);
        let sets: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        for (i, outputs) in sets.into_iter().enumerate() {
            let expected: Vec<u64> = outputs.iter().map(|&k| full[k]).collect();
            assert_eq!(o.query_cone(&block, &all, outputs), expected, "{outputs:?}");
            assert_eq!(cache.stats(), (0, i as u64 + 1), "{outputs:?} hit");
        }
        assert_eq!(cache.entries(), 3);
        assert_eq!(o.query_cone(&block, &all, &[1]), vec![full[1]]);
        assert_eq!(cache.stats(), (1, 3), "a replay must hit");
        assert_eq!(cache.cone_stats(), (1, 3));
        assert_eq!(o.queries(), 40);
        assert_eq!(o.query_block(&block), full);
        assert_eq!(cache.stats(), (1, 4), "a full answer hit a subset entry");
        assert_eq!(cache.cone_stats(), (1, 3), "a full answer is no cone probe");
        assert_eq!(cache.entries(), 4);
        assert_eq!(o.queries(), 50);
    }

    #[test]
    fn one_cone_block_under_two_input_lists_is_two_entries() {
        // The same two-lane block drives inputs [0, 1] in one call and
        // [2, 3] in the other: two misses, two entries, and each answer is
        // the exact chip's on its own scattered block. The answers differ,
        // so one entry standing for both would answer one call wrongly.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let block = PatternBlock {
            lanes: vec![0b0011, 0b0101],
            count: 4,
        };
        let mut answers = Vec::new();
        for inputs in [[0usize, 1], [2, 3]] {
            let expected = OracleStack::exact(&nl).query_block(&scatter(&block, &inputs));
            let got = o.query_cone(&block, &inputs, &[0, 1]);
            assert_eq!(got, expected, "inputs {inputs:?}");
            answers.push(got);
        }
        assert_ne!(answers[0], answers[1], "the two calls must differ");
        assert_eq!(cache.cone_stats(), (0, 2));
        assert_eq!(cache.entries(), 2);
        for (inputs, answer) in [[0usize, 1], [2, 3]].iter().zip(&answers) {
            assert_eq!(&o.query_cone(&block, inputs, &[0, 1]), answer);
        }
        assert_eq!(cache.cone_stats(), (2, 2), "replays must hit");
    }

    #[test]
    fn threads_sharing_one_cache_answer_exactly_and_count_every_lookup() {
        // Four workers share one cache. Each asks every c17 pattern as a
        // one-pattern block and the four 8-pattern blocks, both full-width
        // through `query_block` and as cone blocks listing every input
        // through `query_cone`, in its own order, all starting together.
        // Racing misses may simulate a key twice, but every answer is the
        // exact chip's, every lookup is counted once, and each distinct
        // key is one entry.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let patterns = c17_patterns();
        let singles: Vec<PatternBlock> = patterns
            .chunks(1)
            .map(PatternBlock::from_patterns)
            .collect();
        let blocks: Vec<PatternBlock> = patterns
            .chunks(8)
            .map(PatternBlock::from_patterns)
            .collect();
        let all: Vec<usize> = (0..5).collect();
        const THREADS: usize = 4;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (nl, cache, singles, blocks, all, start) =
                    (&nl, &cache, &singles, &blocks, &all, &start);
                scope.spawn(move || {
                    let mut exact = OracleStack::exact(nl);
                    let mut oracle = CachedOracle::over(nl, Arc::clone(cache));
                    start.wait();
                    for step in 0..singles.len() {
                        let single = &singles[(step * 7 + t * 9) % singles.len()];
                        let y = exact.query_block(single);
                        assert_eq!(oracle.query_block(single), y, "thread {t}, {single:?}");
                        assert_eq!(oracle.query_cone(single, all, &[0, 1]), y, "thread {t}");
                    }
                    for step in 0..blocks.len() {
                        let block = &blocks[(step + t) % blocks.len()];
                        let y = exact.query_block(block);
                        assert_eq!(oracle.query_block(block), y, "thread {t}");
                        assert_eq!(oracle.query_cone(block, all, &[0, 1]), y, "thread {t}");
                    }
                });
            }
        });
        let per_kind = (singles.len() + blocks.len()) as u64;
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, THREADS as u64 * 2 * per_kind);
        let (cone_hits, cone_misses) = cache.cone_stats();
        assert_eq!(cone_hits + cone_misses, THREADS as u64 * per_kind);
        assert_eq!(cache.entries(), 2 * per_kind, "one entry per key");
        assert!(misses >= cache.entries());
    }

    /// Two independent cones; only the first is camouflaged, so the COI
    /// projection engages with cone inputs {a, b}.
    fn split_design() -> (gshe_logic::Netlist, gshe_camo::KeyedNetlist) {
        use gshe_logic::{Bf2, NetlistBuilder};
        let mut b = NetlistBuilder::new("split");
        let a = b.input("a");
        let c = b.input("b");
        let d = b.input("c");
        let e = b.input("d");
        let g1 = b.gate2("g1", Bf2::AND, a, c);
        let g2 = b.gate2("g2", Bf2::OR, d, e);
        b.output(g1);
        b.output(g2);
        let nl = b.finish().unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let keyed =
            gshe_camo::camouflage(&nl, &[g1], gshe_camo::CamoScheme::GsheAll16, &mut rng).unwrap();
        (nl, keyed)
    }

    #[test]
    fn cone_keyed_hits_are_byte_identical_to_full_key_and_uncached() {
        use gshe_attacks::{CoiMode, CoiOracle, CoiProjection};

        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("projection engages");
        let inputs = proj.input_map().to_vec();
        assert_eq!(inputs, [0, 1], "only a, b feed the cloaked cone");
        let outputs = proj.affected_outputs().to_vec();

        // Three chips answering the same cone-interface queries: the
        // cone-keyed cache behind the projection, the full-width cache
        // asked the scattered block, and no cache at all.
        let cone_cache = OracleCache::shared();
        let full_cache = OracleCache::shared();
        let mut cone_inner = CachedOracle::over(&nl, Arc::clone(&cone_cache));
        let mut full_key = CachedOracle::over(&nl, Arc::clone(&full_cache));
        let mut bare_inner = OracleStack::exact(&nl);
        let mut cone_keyed = CoiOracle::new(&mut cone_inner, &proj);
        let mut uncached = CoiOracle::new(&mut bare_inner, &proj);
        let mut full_answer = |block: &PatternBlock| -> Vec<u64> {
            let mut lanes = vec![0u64; nl.inputs().len()];
            for (&i, &lane) in inputs.iter().zip(&block.lanes) {
                lanes[i] = lane;
            }
            let full = full_key.query_block(&PatternBlock {
                lanes,
                count: block.count,
            });
            outputs.iter().map(|&o| full[o]).collect()
        };

        // Every cone input combination, scalar and block form.
        for p in 0..4u32 {
            let pattern: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let single = PatternBlock::from_patterns(std::slice::from_ref(&pattern));
            let y = cone_keyed.query(&pattern);
            assert_eq!(y, uncached.query(&pattern), "scalar p={p}");
            let lanes = full_answer(&single);
            let full_y: Vec<bool> = lanes.iter().map(|lane| lane & 1 == 1).collect();
            assert_eq!(y, full_y, "scalar p={p}");
        }
        let patterns: Vec<Vec<bool>> = (0..3u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let lanes = cone_keyed.query_block(&block);
        assert_eq!(lanes, full_answer(&block), "block");
        assert_eq!(lanes, uncached.query_block(&block), "block");

        // A partial block differing only in garbage bits of invalid
        // lanes must *hit* the cone-keyed entry and answer identically.
        let mut garbage = block.clone();
        for lane in &mut garbage.lanes {
            *lane |= 0xFFFF_0000;
        }
        let (hits_before, misses_before) = cone_cache.cone_stats();
        assert_eq!(cone_keyed.query_block(&garbage), lanes);
        let (hits_after, misses_after) = cone_cache.cone_stats();
        assert_eq!(
            hits_after,
            hits_before + 1,
            "garbage lanes split a cone key"
        );
        assert_eq!(misses_after, misses_before);

        // Cone keys are narrow: sub-pattern words + count, not the full
        // input width.
        assert!(cone_cache.cone_key_words() >= 1);
        assert!(cone_cache.cone_key_words() <= 3);
        let (cone_hits, cone_misses) = cone_cache.cone_stats();
        assert_eq!((cone_hits, cone_misses), cone_cache.stats());
        assert!(cone_hits > 0 && cone_misses > 0);

        // A second job over the same cone (a later trial) hits the warm
        // cache through a fresh oracle instance.
        let mut second_inner = CachedOracle::over(&nl, Arc::clone(&cone_cache));
        let mut second = CoiOracle::new(&mut second_inner, &proj);
        let misses_before = cone_cache.stats().1;
        assert_eq!(second.query_block(&block), lanes);
        assert_eq!(cone_cache.stats().1, misses_before, "warm trial re-misses");
    }

    #[test]
    fn cone_and_full_keys_never_alias() {
        // Same netlist, same block: a cone block listing every input and
        // every output packs the same bits as the full-width block, but
        // lives under its own fingerprint, so the full-width query misses.
        // Replays of either hit their own entry.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over(&nl, Arc::clone(&cache));
        let all: Vec<usize> = (0..5).collect();
        let block = PatternBlock::from_patterns(&c17_patterns()[3..9]);
        let cone = o.query_cone(&block, &all, &[0, 1]);
        let full = o.query_block(&block);
        assert_eq!(cone, full, "same chip, same block");
        assert_eq!(cache.stats(), (0, 2), "salted fingerprints keep keys apart");
        assert_eq!(cache.entries(), 2);
        assert_eq!(o.query_cone(&block, &all, &[0, 1]), cone);
        assert_eq!(o.query_block(&block), full);
        assert_eq!(cache.stats(), (2, 2), "replays must hit");
        assert_eq!(cache.cone_stats(), (1, 1));
    }
}
