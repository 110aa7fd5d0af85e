//! The names the deleted session oracle cache left behind, kept only
//! because perfbench's frozen traced replay compiles against them; ROADMAP
//! item 1's benchmark change, which replaces the replay, deletes them.
//!
//! Campaign jobs and profile-search trials query their [`OracleStack`]
//! directly ([`crate::job`]), and nothing in the workspace reads this
//! module: [`OracleCache`] holds and counts nothing, and
//! [`CachedOracle`]'s constructors return the bare exact chip.

use gshe_attacks::OracleStack;
use gshe_logic::Netlist;
use std::sync::Arc;

/// An empty stand-in for the deleted session cache, for perfbench's
/// frozen replay only; ROADMAP item 1's benchmark change deletes it.
pub struct OracleCache;

impl OracleCache {
    /// An empty cache behind an [`Arc`].
    pub fn shared() -> Arc<OracleCache> {
        Arc::new(OracleCache)
    }

    /// (hits, misses): always `(0, 0)`.
    pub fn stats(&self) -> (u64, u64) {
        (0, 0)
    }

    /// (cone hits, cone misses): always `(0, 0)`.
    pub fn cone_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// The exact chip's constructors under their old names, for perfbench's
/// frozen replay only; ROADMAP item 1's benchmark change deletes it. No
/// value of this type exists.
pub enum CachedOracle {}

impl CachedOracle {
    /// [`OracleStack::exact`] over `netlist`; `_cache` is unused.
    pub fn over(netlist: &Netlist, _cache: Arc<OracleCache>) -> OracleStack<'_> {
        OracleStack::exact(netlist)
    }

    /// [`OracleStack::exact`] over `netlist`: every
    /// [`gshe_attacks::Oracle::query_cone`] call carries its own cone
    /// inputs, so `_cache` and `_cone_inputs` are unused.
    pub fn over_cone(
        netlist: &Netlist,
        _cache: Arc<OracleCache>,
        _cone_inputs: Vec<usize>,
    ) -> OracleStack<'_> {
        OracleStack::exact(netlist)
    }
}
