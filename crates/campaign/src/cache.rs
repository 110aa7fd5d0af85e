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
//! The cache is one `Mutex<HashMap>` with no cap. A key is the netlist
//! (or cone) fingerprint plus the block's valid patterns packed as one
//! dense bit string and the pattern count; a value is the packed output
//! lanes, immutable once inserted (the exact chip always answers the
//! same), so the protocol is a get-or-insert whose simulation runs
//! outside the lock. The netlist fingerprint is
//! [`Netlist::structural_hash`]: one pass over the raw arena, names left
//! out, taken once per [`CachedOracle`].
//!
//! **Cone keys.** Superblue-scale cells attack through a
//! cone-of-influence projection (`gshe_attacks::coi`), whose
//! [`CoiOracle`](gshe_attacks::CoiOracle) scatter guarantees every query
//! reaching the underlying full-design oracle carries `false` on all
//! non-cone input positions. [`CachedOracle::over_cone`] exploits that
//! invariant: its entries key on the packed *cone-input sub-pattern* (a
//! few words at an ~8k-input design with a small cone) under a
//! cone-specific fingerprint, so DIP-loop re-queries across trials hit
//! even though the full-width patterns would be kilobyte keys. The cone
//! fingerprint mixes the netlist fingerprint, the cone input ordinal list
//! and a salt, so cone entries never alias full-key entries or another
//! cone's. Every cone-keyed query asserts the invariant: a block whose
//! valid patterns set an input outside the cone panics instead of
//! aliasing.
//!
//! **Output-subset answers.** A cone-projected attack asks for the
//! affected outputs only ([`Oracle::query_outputs`]), and the exact chip
//! answers those from their fanin cone. Such an entry holds just the
//! listed outputs' lanes, under the fingerprint salted with the output
//! list, so a subset answer never aliases a full answer or another
//! subset's; the key is packed the same way.

use crate::job::hash_mix;
use gshe_attacks::{Oracle, OracleStack};
use gshe_logic::{Netlist, PatternBlock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Key: netlist (or cone) fingerprint, then the packed block ([`pack`]).
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
    /// [`CachedOracle::over_cone`].
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

/// Packs the valid patterns of `block` on `columns` (input ordinals) into
/// key words: column after column, the `count` valid bits of each
/// column's lane as one dense bit string, then the pattern count.
///
/// Bits beyond `count` are never read, so blocks that differ only there
/// share a key, and the count word keeps a block apart from its prefixes.
/// A key over `w` columns is `⌈count·w/64⌉ + 1` words: at most `w + 1`,
/// and `⌈w/64⌉ + 1` for the single-pattern query of a DIP round.
fn pack(block: &PatternBlock, columns: impl ExactSizeIterator<Item = usize>) -> Vec<u64> {
    let count = block.count;
    let mask = block.valid_mask();
    let mut words = vec![0u64; (columns.len() * count).div_ceil(64) + 1];
    for (c, column) in columns.enumerate() {
        let bits = block.lanes[column] & mask;
        let (word, shift) = (c * count / 64, c * count % 64);
        words[word] |= bits << shift;
        if shift + count > 64 {
            words[word + 1] |= bits >> (64 - shift);
        }
    }
    *words.last_mut().expect("the count word") = count as u64;
    words
}

/// The fingerprint cone keys live under: the netlist's mixed with the
/// cone's input ordinals under a salt, so cone entries never alias
/// full-key entries (even for a cone reading every input) or another
/// cone's.
fn cone_fingerprint(netlist_fingerprint: u64, cone: &[usize]) -> u64 {
    let mut h = hash_mix(netlist_fingerprint ^ 0xC04E_1B17_5A17_ED01);
    h = hash_mix(h ^ cone.len() as u64);
    for &i in cone {
        h = hash_mix(h ^ i as u64);
    }
    h
}

/// The fingerprint output-subset answers live under: `fingerprint` (the
/// netlist's or the cone's) mixed with the output ordinals, in order,
/// under a salt of their own.
fn outputs_fingerprint(fingerprint: u64, outputs: &[usize]) -> u64 {
    let mut h = hash_mix(fingerprint ^ 0x0B7E_5E1E_C7ED_5A17);
    h = hash_mix(h ^ outputs.len() as u64);
    for &o in outputs {
        h = hash_mix(h ^ o as u64);
    }
    h
}

/// Panics unless every valid pattern of `block` is `false` on every input
/// outside `cone` (ascending ordinals) — the contract that makes keying
/// on the cone lanes alone sound. One pass over the lanes.
fn assert_zero_outside(block: &PatternBlock, cone: &[usize]) {
    let mask = block.valid_mask();
    let mut cone = cone.iter().peekable();
    for (i, &lane) in block.lanes.iter().enumerate() {
        if cone.next_if_eq(&&i).is_none() {
            assert!(
                lane & mask == 0,
                "cone-keyed cache query sets input {i}, which is outside the cone"
            );
        }
    }
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
    /// The netlist's fingerprint, or the cone's ([`cone_fingerprint`]).
    fingerprint: u64,
    /// For a cone-keyed oracle, the full-design input ordinals its keys
    /// are packed from, ascending.
    cone: Option<Vec<usize>>,
    count: u64,
}

impl<'a> CachedOracle<'a> {
    /// The exact chip for `netlist`, keyed on every input.
    pub fn over(netlist: &'a Netlist, cache: Arc<OracleCache>) -> Self {
        CachedOracle {
            inner: OracleStack::exact(netlist),
            cache,
            fingerprint: netlist.structural_hash(),
            cone: None,
            count: 0,
        }
    }

    /// Like [`CachedOracle::over`], keyed on the cone-input sub-pattern:
    /// `cone_inputs` are the full-design input ordinals of the cone the
    /// attack will run through (see
    /// [`gshe_attacks::cone_inputs`](gshe_attacks::coi::cone_inputs)).
    /// Sound only when every query arrives through the matching
    /// `CoiOracle` scatter, which sets no input outside the cone.
    ///
    /// # Panics
    ///
    /// Panics if `cone_inputs` is not strictly ascending, and on any query
    /// whose valid patterns set an input outside the cone.
    pub fn over_cone(
        netlist: &'a Netlist,
        cache: Arc<OracleCache>,
        cone_inputs: Vec<usize>,
    ) -> Self {
        assert!(
            cone_inputs.windows(2).all(|w| w[0] < w[1]),
            "cone input ordinals must be strictly ascending"
        );
        let mut oracle = Self::over(netlist, cache);
        oracle.fingerprint = cone_fingerprint(oracle.fingerprint, &cone_inputs);
        oracle.cone = Some(cone_inputs);
        oracle
    }
}

impl<'a> CachedOracle<'a> {
    /// The answer to `block` under `fingerprint`, through the cache:
    /// checks the width and, for a cone-keyed oracle, the
    /// zero-outside-the-cone contract, counts the patterns, and on a miss
    /// asks the exact chip through `compute`.
    fn answer(
        &mut self,
        block: &PatternBlock,
        fingerprint: u64,
        compute: impl FnOnce(&mut OracleStack<'a>) -> Vec<u64>,
    ) -> Vec<u64> {
        assert_eq!(
            block.lanes.len(),
            self.inner.num_inputs(),
            "cached oracle query has the wrong number of inputs"
        );
        self.count += block.count as u64;
        let timed = gshe_obs::enabled().then(std::time::Instant::now);
        let key = match &self.cone {
            Some(cone) => {
                assert_zero_outside(block, cone);
                pack(block, cone.iter().copied())
            }
            None => pack(block, 0..block.lanes.len()),
        };
        let inner = &mut self.inner;
        let out = self
            .cache
            .get_or_insert(fingerprint, key, self.cone.is_some(), || compute(inner));
        if let Some(t0) = timed {
            gshe_obs::record("cache.query_block_ns", t0.elapsed().as_nanos() as u64);
        }
        out
    }
}

impl Oracle for CachedOracle<'_> {
    /// # Panics
    ///
    /// Panics on a block whose width is not the netlist's input count,
    /// and, for a cone-keyed oracle, on a block whose valid patterns set
    /// an input outside the cone.
    fn query_block(&mut self, block: &PatternBlock) -> Vec<u64> {
        self.answer(block, self.fingerprint, |inner| inner.query_block(block))
    }

    /// Like [`CachedOracle::query_block`], with the entry holding only
    /// the listed outputs' lanes under the fingerprint salted with the
    /// output list; a miss asks the exact chip for just those outputs.
    ///
    /// # Panics
    ///
    /// As [`CachedOracle::query_block`], and if an ordinal is out of
    /// range.
    fn query_outputs(&mut self, block: &PatternBlock, outputs: &[usize]) -> Vec<u64> {
        let fingerprint = outputs_fingerprint(self.fingerprint, outputs);
        self.answer(block, fingerprint, |inner| {
            inner.query_outputs(block, outputs)
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
        assert_eq!(pack(&a, 0..5), pack(&garbage, 0..5));
        let longer = PatternBlock {
            lanes: a.lanes.clone(),
            count: 3,
        };
        assert_ne!(pack(&a, 0..5), pack(&longer, 0..5));

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
        assert_eq!(pack(&one, 0..5), vec![0b10101, 1]);

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
        // first or not in one of several ways: the keys must be equal
        // exactly when the counts and the valid patterns on the key's
        // columns are, whatever lies beyond `count` or outside the
        // columns, and every key is ⌈count·w/64⌉ + 1 words.
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
                    let (ka, kb) = (
                        pack(&a, columns.iter().copied()),
                        pack(&b, columns.iter().copied()),
                    );
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

    #[test]
    fn output_subsets_are_entries_of_their_own() {
        // One cone block asked for outputs [0], [1] and [0, 1]: three
        // misses and three entries, each the gather of the exact chip's
        // full answer, so no subset aliases another; the same block and
        // outputs again hits, and a full answer is an entry of its own.
        // Queries count per pattern, hit or miss.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let mut o = CachedOracle::over_cone(&nl, Arc::clone(&cache), (0..5).collect());
        let block = PatternBlock::from_patterns(&c17_patterns()[..10]);
        let full = OracleStack::exact(&nl).query_block(&block);
        let sets: [&[usize]; 3] = [&[0], &[1], &[0, 1]];
        for (i, outputs) in sets.into_iter().enumerate() {
            let expected: Vec<u64> = outputs.iter().map(|&k| full[k]).collect();
            assert_eq!(o.query_outputs(&block, outputs), expected, "{outputs:?}");
            assert_eq!(cache.stats(), (0, i as u64 + 1), "{outputs:?} hit");
        }
        assert_eq!(cache.entries(), 3);
        assert_eq!(o.query_outputs(&block, &[1]), vec![full[1]]);
        assert_eq!(cache.stats(), (1, 3), "a replay must hit");
        assert_eq!(cache.cone_stats(), (1, 3));
        assert_eq!(o.queries(), 40);
        assert_eq!(o.query_block(&block), full);
        assert_eq!(cache.stats(), (1, 4), "a full answer hit a subset entry");
        assert_eq!(cache.entries(), 4);
        assert_eq!(o.queries(), 50);
    }

    #[test]
    fn threads_sharing_one_cache_answer_exactly_and_count_every_lookup() {
        // Four workers share one cache. Each asks every c17 pattern as a
        // scalar and the four 8-pattern blocks, through its own full-key
        // and cone-keyed oracle (the cone reads every input, so every
        // pattern conforms), in its own order, all starting together.
        // Racing misses may simulate a key twice, but every answer is the
        // exact chip's, every lookup is counted once, and each distinct
        // key is one entry.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let patterns = c17_patterns();
        let blocks: Vec<PatternBlock> = patterns
            .chunks(8)
            .map(PatternBlock::from_patterns)
            .collect();
        const THREADS: usize = 4;
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (nl, cache, patterns, blocks, start) =
                    (&nl, &cache, &patterns, &blocks, &start);
                scope.spawn(move || {
                    let mut exact = OracleStack::exact(nl);
                    let mut full = CachedOracle::over(nl, Arc::clone(cache));
                    let mut cone = CachedOracle::over_cone(nl, Arc::clone(cache), (0..5).collect());
                    start.wait();
                    for step in 0..patterns.len() {
                        let p = &patterns[(step * 7 + t * 9) % patterns.len()];
                        let y = exact.query(p);
                        assert_eq!(full.query(p), y, "thread {t}, pattern {p:?}");
                        assert_eq!(cone.query(p), y, "thread {t}, pattern {p:?}");
                    }
                    for step in 0..blocks.len() {
                        let block = &blocks[(step + t) % blocks.len()];
                        let y = exact.query_block(block);
                        assert_eq!(full.query_block(block), y, "thread {t}");
                        assert_eq!(cone.query_block(block), y, "thread {t}");
                    }
                });
            }
        });
        let per_oracle = (patterns.len() + blocks.len()) as u64;
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, THREADS as u64 * 2 * per_oracle);
        let (cone_hits, cone_misses) = cache.cone_stats();
        assert_eq!(cone_hits + cone_misses, THREADS as u64 * per_oracle);
        assert_eq!(cache.entries(), 2 * per_oracle, "one entry per key");
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
        use gshe_attacks::{cone_inputs, CoiMode, CoiOracle, CoiProjection};

        let (nl, keyed) = split_design();
        let proj = CoiProjection::build(&keyed, CoiMode::On).expect("projection engages");
        let inputs = cone_inputs(&keyed, CoiMode::On).expect("cone inputs");
        assert_eq!(inputs.len(), 2, "only a, b feed the cloaked cone");

        // Three stacks answering the same cone-interface queries: cone-
        // keyed cache, full-key cache, and no cache at all.
        let cone_cache = OracleCache::shared();
        let full_cache = OracleCache::shared();
        let mut cone_inner = CachedOracle::over_cone(&nl, Arc::clone(&cone_cache), inputs.clone());
        let mut full_inner = CachedOracle::over(&nl, Arc::clone(&full_cache));
        let mut bare_inner = OracleStack::exact(&nl);
        let mut cone_keyed = CoiOracle::new(&mut cone_inner, &proj);
        let mut full_keyed = CoiOracle::new(&mut full_inner, &proj);
        let mut uncached = CoiOracle::new(&mut bare_inner, &proj);

        // Every cone input combination, scalar and block form.
        for p in 0..4u32 {
            let pattern: Vec<bool> = (0..2).map(|k| (p >> k) & 1 == 1).collect();
            let y = cone_keyed.query(&pattern);
            assert_eq!(y, full_keyed.query(&pattern), "scalar p={p}");
            assert_eq!(y, uncached.query(&pattern), "scalar p={p}");
        }
        let patterns: Vec<Vec<bool>> = (0..3u32)
            .map(|p| (0..2).map(|k| (p >> k) & 1 == 1).collect())
            .collect();
        let block = PatternBlock::from_patterns(&patterns);
        let lanes = cone_keyed.query_block(&block);
        assert_eq!(lanes, full_keyed.query_block(&block), "block");
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
        let mut second_inner = CachedOracle::over_cone(&nl, Arc::clone(&cone_cache), inputs);
        let mut second = CoiOracle::new(&mut second_inner, &proj);
        let misses_before = cone_cache.stats().1;
        assert_eq!(second.query_block(&block), lanes);
        assert_eq!(cone_cache.stats().1, misses_before, "warm trial re-misses");
    }

    #[test]
    #[should_panic(expected = "outside the cone")]
    fn cone_keyed_queries_must_be_zero_outside_the_cone() {
        // Two blocks that differ only outside the cone would share one
        // cone-keyed entry and get one answer for two different output
        // sets, so the oracle refuses any block that sets a non-cone input
        // in a valid pattern.
        let nl = parse_bench(C17_BENCH).unwrap();
        let mut o = CachedOracle::over_cone(&nl, OracleCache::shared(), vec![0, 2]);
        // Garbage beyond the valid patterns is allowed.
        let conforming = PatternBlock {
            lanes: vec![0b01, 0b100, 0b11, 0, 0b100],
            count: 2,
        };
        o.query_block(&conforming);
        let mut stray = conforming;
        stray.lanes[4] = 0b10;
        o.query_block(&stray);
    }

    #[test]
    fn cone_and_full_keys_never_alias() {
        // Same netlist, same pattern content: the cone-keyed probe and
        // the full-key probe must live under distinct fingerprints even
        // when the cone reads every input.
        let nl = parse_bench(C17_BENCH).unwrap();
        let cache = OracleCache::shared();
        let all_inputs: Vec<usize> = (0..5).collect();
        let mut cone = CachedOracle::over_cone(&nl, Arc::clone(&cache), all_inputs);
        let mut full = CachedOracle::over(&nl, Arc::clone(&cache));
        let pattern = [true, false, true, false, true];
        let ya = cone.query(&pattern);
        let yb = full.query(&pattern);
        assert_eq!(ya, yb, "same chip, same pattern");
        assert_eq!(cache.stats(), (0, 2), "salted fingerprints keep keys apart");
        assert_eq!(cache.entries(), 2);
    }
}
