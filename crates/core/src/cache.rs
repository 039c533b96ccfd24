//! Structure-keyed characterization cache (the paper's Fig. 6 reuse,
//! executed literally).
//!
//! Drive-strength, skew and threshold-flavor variants of a cell differ
//! only in device sizing — and the topological solver never reads sizes,
//! so their detection tables are *bit-identical up to the transistor
//! permutation*. [`CharCache`] exploits this: before simulating a cell it
//! keys on the full canonical triple `(structure_hash, wiring_hash,
//! reduced_hash)`; on a hit it remaps the cached defect table onto the
//! new cell's transistor ordering instead of re-running the solver.
//!
//! # Soundness
//!
//! Hashes alone can collide, so a hit is never trusted blindly. The
//! cached donor cell and the candidate are put through an explicit
//! **graph-isomorphism certification**: devices are paired by canonical
//! position, and a consistent net bijection (rails ↔ rails, pins ↔ pins
//! by index, internal nets by propagation) is constructed, allowing a
//! per-device drain/source orientation flip (SPICE channel symmetry).
//! Only a certified isomorphism yields a remap; anything else — a true
//! hash collision, an exotic topology the search cannot certify — falls
//! back to plain simulation. Wrong models are therefore impossible, the
//! only failure mode is a wasted lookup.
//!
//! The key refuses [`CanonicalCell::is_netlist_ordered`] views: their
//! hashes are order-sensitive ablation artifacts, not structure classes.
//!
//! # Concurrency
//!
//! The cache is shared across executor workers. Per-key slots use
//! leader election (first claimant simulates, followers block on a
//! condvar): no duplicate simulation work, and the hit/miss *counts* are
//! deterministic regardless of thread count or scheduling.

// Shared by long-running batch drivers; a stray unwrap here can abort a
// whole characterization run.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::canonical::CanonicalCell;
use crate::error::CoreError;
use crate::matrix::{budgeted_model, PreparedCell};
use ca_defects::{BitRow, CaModel, DefectClass, DefectId, DefectUniverse, GenerateOptions};
use ca_netlist::{Cell, NetId, Terminal, TransistorId};
use ca_sim::{DetectionPolicy, Injection, SimBudget};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Node budget of the isomorphism search: orientation backtracking is
/// almost always resolved by propagation, so hitting this bound means an
/// adversarial topology — fall back to simulation rather than spin.
const ISO_SEARCH_BUDGET: usize = 10_000;

/// Cache key: the full canonical triple plus the generation options
/// (models generated under different options are never interchangeable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
struct CacheKey {
    structure: u64,
    wiring: u64,
    reduced: u64,
    policy: DetectionPolicy,
    inter_transistor: bool,
}

impl CacheKey {
    /// The key of `canonical` under `options`; `None` for netlist-order
    /// fallback canonicals, which must not participate in reuse.
    fn for_canonical(canonical: &CanonicalCell, options: GenerateOptions) -> Option<CacheKey> {
        if canonical.is_netlist_ordered() {
            return None;
        }
        Some(CacheKey {
            structure: canonical.structure_hash(),
            wiring: canonical.wiring_hash(),
            reduced: canonical.reduced_hash(),
            policy: options.policy,
            inter_transistor: options.inter_transistor,
        })
    }
}

/// The donor side of a cache entry: everything needed to certify a new
/// cell against it and remap its model.
struct Donor {
    cell: Cell,
    canonical: CanonicalCell,
    model: CaModel,
}

enum SlotState {
    /// A leader is characterizing; followers wait on the condvar.
    Pending,
    /// Characterization finished; `None` means the leader failed and
    /// followers must simulate themselves.
    Ready(Option<Arc<Donor>>),
}

struct Slot {
    state: Mutex<SlotState>,
    ready: Condvar,
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: Mutex::new(SlotState::Pending),
            ready: Condvar::new(),
        }
    }

    fn publish(&self, donor: Option<Arc<Donor>>) {
        *lock_recover(&self.state) = SlotState::Ready(donor);
        self.ready.notify_all();
    }

    fn wait(&self) -> Option<Arc<Donor>> {
        let mut state = lock_recover(&self.state);
        loop {
            match &*state {
                SlotState::Ready(donor) => return donor.clone(),
                SlotState::Pending => {
                    state = match self.ready.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            }
        }
    }
}

/// Locks a mutex, recovering from poison: slot state transitions are
/// single-assignment, so a poisoned guard still holds consistent data.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Publishes `Ready(None)` if the leader unwinds before publishing a
/// donor, so followers never deadlock on a panicking leader.
struct LeaderGuard<'a> {
    slot: &'a Slot,
    armed: bool,
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.slot.publish(None);
        }
    }
}

/// Counters of one cache's lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups served by remapping a cached model.
    pub hits: usize,
    /// Lookups that had to simulate (includes every leader).
    pub misses: usize,
    /// Key matches whose isomorphism certification failed (hash
    /// collisions or uncertifiable topologies); these also count as
    /// misses.
    pub rejected: usize,
    /// Lookups that bypassed the cache entirely (netlist-order
    /// canonicals, truncating budgets).
    pub bypassed: usize,
}

impl CacheStats {
    /// Every lookup that entered the cache API: `hits + misses +
    /// bypassed`. (`rejected` lookups are already inside `misses`, so
    /// they are not added again.) Profile rates computed over this
    /// denominator sum to 100%.
    pub fn lookup_total(&self) -> usize {
        self.hits + self.misses + self.bypassed
    }

    /// Hits over *all* lookups — bypassed included — in `[0, 1]`. A
    /// bypass is a lookup the cache declined to serve, so counting it
    /// in the denominator keeps this rate and
    /// [`CacheStats::bypass_rate`] summing with the miss share to 1.
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookup_total();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bypassed lookups over all lookups, in `[0, 1]`.
    pub fn bypass_rate(&self) -> f64 {
        let total = self.lookup_total();
        if total == 0 {
            0.0
        } else {
            self.bypassed as f64 / total as f64
        }
    }
}

/// A structure-keyed characterization cache; see the module docs.
///
/// Shared by reference across executor workers; create one per logical
/// batch (or hold one for a whole session — entries never expire).
#[derive(Default)]
pub struct CharCache {
    slots: Mutex<BTreeMap<CacheKey, Arc<Slot>>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    rejected: AtomicUsize,
    bypassed: AtomicUsize,
}

impl std::fmt::Debug for CharCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("CharCache")
            .field("entries", &lock_recover(&self.slots).len())
            .field("stats", &stats)
            .finish()
    }
}

enum Claim {
    Leader(Arc<Slot>),
    Follower(Arc<Slot>),
}

impl CharCache {
    /// An empty cache.
    pub fn new() -> CharCache {
        CharCache::default()
    }

    /// Lifetime counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
            bypassed: self.bypassed.load(Ordering::Relaxed),
        }
    }

    // Each bump lands in both this cache's own stats and the global
    // metric registry — the registry aggregates across every cache in
    // the process, `stats()` stays per-batch. Leader election makes
    // all four counts scheduling-invariant, hence `work`-class.
    fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        ca_obs::counter!("ca_core.cache.hits", Work).inc();
    }

    fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        ca_obs::counter!("ca_core.cache.misses", Work).inc();
    }

    fn note_rejected(&self) {
        self.rejected.fetch_add(1, Ordering::Relaxed);
        ca_obs::counter!("ca_core.cache.rejected", Work).inc();
    }

    fn note_bypassed(&self) {
        self.bypassed.fetch_add(1, Ordering::Relaxed);
        ca_obs::counter!("ca_core.cache.bypassed", Work).inc();
    }

    /// Drop-in replacement for [`PreparedCell::characterize`] that serves
    /// structurally identical cells from the cache.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PreparedCell::characterize`].
    pub fn characterize(
        &self,
        cell: Cell,
        options: GenerateOptions,
    ) -> Result<PreparedCell, CoreError> {
        let mut prepared = PreparedCell::prepare(cell)?;
        let Some(key) = CacheKey::for_canonical(&prepared.canonical, options) else {
            self.note_bypassed();
            prepared.model = Some(CaModel::generate(&prepared.cell, options));
            return Ok(prepared);
        };
        match self.claim(key) {
            Claim::Leader(slot) => {
                let mut guard = LeaderGuard {
                    slot: &slot,
                    armed: true,
                };
                let model = CaModel::generate(&prepared.cell, options);
                if !model.degraded {
                    guard.armed = false;
                    slot.publish(Some(Arc::new(Donor {
                        cell: prepared.cell.clone(),
                        canonical: prepared.canonical.clone(),
                        model: model.clone(),
                    })));
                }
                self.note_miss();
                prepared.model = Some(model);
                Ok(prepared)
            }
            Claim::Follower(slot) => {
                if let Some(donor) = slot.wait() {
                    if let Some(model) = remap_model(&donor, &prepared, options) {
                        self.note_hit();
                        prepared.model = Some(model);
                        return Ok(prepared);
                    }
                    self.note_rejected();
                }
                self.note_miss();
                prepared.model = Some(CaModel::generate(&prepared.cell, options));
                Ok(prepared)
            }
        }
    }

    /// Budget-aware variant used by the guarded pipeline. The cache only
    /// participates when the budget cannot change the *result* of a
    /// successful run — i.e. no stimulus/defect truncation and no solver
    /// iteration cap. A pure wall-clock deadline is fine: a hit does
    /// strictly less work than the simulation the deadline bounds. Every
    /// simulated model is generated for the cell prepared for the key
    /// lookup, so a miss prepares once.
    ///
    /// # Errors
    ///
    /// Exactly those of [`PreparedCell::characterize_budgeted`].
    pub fn characterize_budgeted(
        &self,
        cell: Cell,
        options: GenerateOptions,
        budget: &SimBudget,
    ) -> Result<PreparedCell, CoreError> {
        if budget.max_stimuli.is_some()
            || budget.max_defects.is_some()
            || budget.max_solver_iterations.is_some()
        {
            self.note_bypassed();
            return PreparedCell::characterize_budgeted(cell, options, budget);
        }
        let prepared = match PreparedCell::prepare(cell.clone()) {
            Ok(p) => p,
            // Preserve the budgeted path's error precedence (it generates
            // before preparing): re-run it cold so e.g. a wall-clock
            // expiry surfaces ahead of a multi-output rejection.
            Err(_) => return PreparedCell::characterize_budgeted(cell, options, budget),
        };
        let Some(key) = CacheKey::for_canonical(&prepared.canonical, options) else {
            self.note_bypassed();
            return budgeted_model(&prepared.cell, options, budget).map(|m| prepared.with_model(m));
        };
        match self.claim(key) {
            Claim::Leader(slot) => {
                let mut guard = LeaderGuard {
                    slot: &slot,
                    armed: true,
                };
                let result =
                    budgeted_model(&prepared.cell, options, budget).map(|m| prepared.with_model(m));
                if let Ok(p) = &result {
                    if let Some(model) = p.model.as_ref().filter(|m| !m.degraded) {
                        guard.armed = false;
                        slot.publish(Some(Arc::new(Donor {
                            cell: p.cell.clone(),
                            canonical: p.canonical.clone(),
                            model: model.clone(),
                        })));
                    }
                }
                self.note_miss();
                result
            }
            Claim::Follower(slot) => {
                if let Some(donor) = slot.wait() {
                    if let Some(model) = remap_model(&donor, &prepared, options) {
                        self.note_hit();
                        return Ok(prepared.with_model(model));
                    }
                    self.note_rejected();
                }
                self.note_miss();
                budgeted_model(&prepared.cell, options, budget).map(|m| prepared.with_model(m))
            }
        }
    }

    fn claim(&self, key: CacheKey) -> Claim {
        let mut slots = lock_recover(&self.slots);
        match slots.entry(key) {
            std::collections::btree_map::Entry::Occupied(e) => Claim::Follower(Arc::clone(e.get())),
            std::collections::btree_map::Entry::Vacant(v) => {
                let slot = Arc::new(Slot::new());
                v.insert(Arc::clone(&slot));
                Claim::Leader(slot)
            }
        }
    }

    /// Plants a pre-characterized donor under its own canonical key —
    /// the session layer uses this to pre-seed the cache with models
    /// reloaded from the on-disk store, so on-disk hits flow through the
    /// same isomorphism-certified remap path as in-memory hits.
    ///
    /// Returns `false` (and plants nothing) for donors the cache would
    /// never serve: degraded models (the never-a-donor rule — an
    /// incomplete table must not propagate to structure siblings),
    /// netlist-ordered canonicals, and keys that already hold a donor.
    /// `canonical` must be the canonical view of `cell`; a lying caller
    /// is caught by certification at lookup time, not here.
    pub fn seed_donor(
        &self,
        cell: Cell,
        canonical: CanonicalCell,
        model: CaModel,
        options: GenerateOptions,
    ) -> bool {
        if model.degraded {
            return false;
        }
        let Some(key) = CacheKey::for_canonical(&canonical, options) else {
            return false;
        };
        let mut slots = lock_recover(&self.slots);
        match slots.entry(key) {
            std::collections::btree_map::Entry::Occupied(_) => false,
            std::collections::btree_map::Entry::Vacant(v) => {
                let slot = Arc::new(Slot::new());
                slot.publish(Some(Arc::new(Donor {
                    cell,
                    canonical,
                    model,
                })));
                v.insert(slot);
                true
            }
        }
    }

    /// TEST SUPPORT: plants `donor` under the key of `victim_canonical`,
    /// simulating a 64-bit hash collision between two different
    /// structures. Only the certification layer stands between this and
    /// a wrong model.
    #[cfg(test)]
    pub(crate) fn plant_collision(
        &self,
        victim_canonical: &CanonicalCell,
        options: GenerateOptions,
        donor: &PreparedCell,
    ) {
        let key = CacheKey::for_canonical(victim_canonical, options).expect("plantable key");
        let slot = Arc::new(Slot::new());
        slot.publish(Some(Arc::new(Donor {
            cell: donor.cell.clone(),
            canonical: donor.canonical.clone(),
            model: donor.model.clone().expect("donor must be characterized"),
        })));
        lock_recover(&self.slots).insert(key, slot);
    }
}

// ---------------------------------------------------------------------
// Isomorphism certification
// ---------------------------------------------------------------------

/// A certified donor → candidate isomorphism.
struct IsoCert {
    /// Candidate net → donor net (dense, by net index).
    c2d: Vec<Option<u32>>,
    /// Per canonical position: candidate device's drain/source are
    /// swapped relative to the donor device.
    swapped: Vec<bool>,
}

#[derive(Clone)]
struct MapState {
    d2c: Vec<Option<u32>>,
    c2d: Vec<Option<u32>>,
    swapped: Vec<bool>,
}

impl MapState {
    /// Records `dn ↔ cn`, failing on any inconsistency (kind mismatch,
    /// non-injective mapping).
    fn unify(&mut self, donor: &Cell, cand: &Cell, dn: NetId, cn: NetId) -> bool {
        if donor.nets()[dn.index()].kind() != cand.nets()[cn.index()].kind() {
            return false;
        }
        match (self.d2c[dn.index()], self.c2d[cn.index()]) {
            (None, None) => {
                self.d2c[dn.index()] = Some(cn.0);
                self.c2d[cn.index()] = Some(dn.0);
                true
            }
            (Some(x), Some(y)) => x == cn.0 && y == dn.0,
            _ => false,
        }
    }
}

/// Builds a net bijection consistent with the canonical device pairing,
/// or `None` when the two cells are *not* isomorphic (the hash-collision
/// safety net) or the search exceeds its budget.
fn certify_isomorphism(
    donor: &Cell,
    donor_canon: &CanonicalCell,
    cand: &Cell,
    cand_canon: &CanonicalCell,
) -> Option<IsoCert> {
    ca_obs::counter!("ca_core.iso.attempts", Work).inc();
    if donor.num_transistors() != cand.num_transistors()
        || donor.num_inputs() != cand.num_inputs()
        || donor.outputs().len() != cand.outputs().len()
    {
        return None;
    }
    let mut state = MapState {
        d2c: vec![None; donor.nets().len()],
        c2d: vec![None; cand.nets().len()],
        swapped: vec![false; donor.num_transistors()],
    };
    // Seed: rails, pins (by index) and outputs are structural anchors.
    let seeds = std::iter::once((donor.power(), cand.power()))
        .chain(std::iter::once((donor.ground(), cand.ground())))
        .chain(
            donor
                .inputs()
                .iter()
                .copied()
                .zip(cand.inputs().iter().copied()),
        )
        .chain(
            donor
                .outputs()
                .iter()
                .copied()
                .zip(cand.outputs().iter().copied()),
        );
    for (dn, cn) in seeds {
        if !state.unify(donor, cand, dn, cn) {
            return None;
        }
    }
    // Pair devices by canonical position; kinds must agree up front.
    let pairs: Vec<(TransistorId, TransistorId)> = donor_canon
        .order()
        .iter()
        .copied()
        .zip(cand_canon.order().iter().copied())
        .collect();
    for &(td, tc) in &pairs {
        if donor.transistor(td).kind() != cand.transistor(tc).kind() {
            return None;
        }
    }
    let mut budget = ISO_SEARCH_BUDGET;
    if !solve(&pairs, 0, &mut state, donor, cand, &mut budget) {
        if budget == 0 {
            ca_obs::counter!("ca_core.iso.budget_exhausted", Work).inc();
        }
        return None;
    }
    ca_obs::counter!("ca_core.iso.certified", Work).inc();
    Some(IsoCert {
        c2d: state.c2d,
        swapped: state.swapped,
    })
}

/// Depth-first assignment of per-device drain/source orientation with
/// constraint propagation through the shared net mapping.
fn solve(
    pairs: &[(TransistorId, TransistorId)],
    k: usize,
    state: &mut MapState,
    donor: &Cell,
    cand: &Cell,
    budget: &mut usize,
) -> bool {
    if k == pairs.len() {
        return true;
    }
    if *budget == 0 {
        return false;
    }
    *budget -= 1;
    let (td, tc) = pairs[k];
    let (dt, ct) = (donor.transistor(td), cand.transistor(tc));
    for swap in [false, true] {
        let (c_drain, c_source) = if swap {
            (ct.source(), ct.drain())
        } else {
            (ct.drain(), ct.source())
        };
        let mut trial = state.clone();
        if trial.unify(donor, cand, dt.gate(), ct.gate())
            && trial.unify(donor, cand, dt.drain(), c_drain)
            && trial.unify(donor, cand, dt.source(), c_source)
        {
            trial.swapped[k] = swap;
            if solve(pairs, k + 1, &mut trial, donor, cand, budget) {
                *state = trial;
                return true;
            }
        }
        // A device with both channel ends on one net is orientation-
        // symmetric; trying the flip would duplicate the branch.
        if ct.drain() == ct.source() {
            break;
        }
    }
    false
}

// ---------------------------------------------------------------------
// Defect-table remapping
// ---------------------------------------------------------------------

fn flip_terminal(term: Terminal, swapped: bool) -> Terminal {
    if !swapped {
        return term;
    }
    match term {
        Terminal::Drain => Terminal::Source,
        Terminal::Source => Terminal::Drain,
        other => other,
    }
}

/// Certifies `prepared` against the donor and, on success, rebuilds the
/// donor's model on the candidate's own transistor ordering. Returns the
/// model the conventional flow would have produced, bit for bit.
fn remap_model(
    donor: &Donor,
    prepared: &PreparedCell,
    options: GenerateOptions,
) -> Option<CaModel> {
    let cert = certify_isomorphism(
        &donor.cell,
        &donor.canonical,
        &prepared.cell,
        &prepared.canonical,
    )?;
    let cand_universe = if options.inter_transistor {
        DefectUniverse::with_inter_transistor(&prepared.cell)
    } else {
        DefectUniverse::intra_transistor(&prepared.cell)
    };
    if donor.model.universe.len() != cand_universe.len() || donor.model.degraded {
        return None;
    }
    let donor_index: BTreeMap<Injection, usize> = donor
        .model
        .universe
        .defects()
        .iter()
        .map(|d| (d.injection, d.id.index()))
        .collect();
    // Candidate defect -> donor defect, through the device pairing (with
    // per-device drain/source flips) and the net bijection.
    let mut cand_to_donor = Vec::with_capacity(cand_universe.len());
    for defect in cand_universe.defects() {
        let donor_injection = match defect.injection {
            Injection::Open {
                transistor,
                terminal,
            } => {
                let k = prepared.canonical.position(transistor);
                Injection::Open {
                    transistor: *donor.canonical.order().get(k)?,
                    terminal: flip_terminal(terminal, cert.swapped[k]),
                }
            }
            Injection::Short { transistor, a, b } => {
                let k = prepared.canonical.position(transistor);
                let td = *donor.canonical.order().get(k)?;
                let (a2, b2) = (
                    flip_terminal(a, cert.swapped[k]),
                    flip_terminal(b, cert.swapped[k]),
                );
                // The universe enumerates unordered pairs in a fixed
                // order; a flip may reverse ours, so try both.
                let forward = Injection::Short {
                    transistor: td,
                    a: a2,
                    b: b2,
                };
                if donor_index.contains_key(&forward) {
                    forward
                } else {
                    Injection::Short {
                        transistor: td,
                        a: b2,
                        b: a2,
                    }
                }
            }
            Injection::NetShort { a, b } => {
                let a2 = NetId(cert.c2d.get(a.index()).copied().flatten()?);
                let b2 = NetId(cert.c2d.get(b.index()).copied().flatten()?);
                let forward = Injection::NetShort { a: a2, b: b2 };
                if donor_index.contains_key(&forward) {
                    forward
                } else {
                    Injection::NetShort { a: b2, b: a2 }
                }
            }
            Injection::None => return None,
        };
        cand_to_donor.push(*donor_index.get(&donor_injection)?);
    }
    // The defect mapping must be a bijection — anything else means the
    // certification missed something, so refuse the hit.
    let mut seen = vec![false; donor.model.rows.len()];
    for &d in &cand_to_donor {
        if *seen.get(d)? {
            return None;
        }
        seen[d] = true;
    }
    let rows: Vec<BitRow> = cand_to_donor
        .iter()
        .map(|&d| donor.model.rows[d].clone())
        .collect();
    // Classes transport through the same bijection: grouping by row
    // equality is isomorphism-invariant, so remapping the members (and
    // restoring the by-representative order) reproduces exactly what
    // `equivalence_classes` would compute on the remapped table.
    let mut donor_to_cand = vec![0usize; cand_to_donor.len()];
    for (c, &d) in cand_to_donor.iter().enumerate() {
        donor_to_cand[d] = c;
    }
    let mut classes: Vec<DefectClass> = donor
        .model
        .classes
        .iter()
        .map(|class| {
            let mut members: Vec<DefectId> = class
                .members
                .iter()
                .map(|m| DefectId(donor_to_cand[m.index()] as u32))
                .collect();
            members.sort_unstable();
            DefectClass {
                representative: members[0],
                members,
                behavior: class.behavior,
                row: class.row.clone(),
            }
        })
        .collect();
    classes.sort_by_key(|c| c.representative);
    Some(CaModel {
        cell_name: prepared.cell.name().to_string(),
        num_inputs: prepared.cell.num_inputs(),
        num_transistors: prepared.cell.num_transistors(),
        universe: cand_universe,
        rows,
        classes,
        // An isomorphic donor ran exactly the simulations this cell
        // would have run; carrying the count keeps cached models
        // bit-identical to cold ones.
        defect_simulations: donor.model.defect_simulations,
        degraded: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ca_netlist::spice;

    const NAND2: &str = "\
.SUBCKT NAND2 A B Z VDD VSS
MPX Z A VDD VDD pch
MPY Z B VDD VDD pch
MN10 Z A net0 VSS nch
MN11 net0 B VSS VSS nch
.ENDS
";

    /// Same NAND2, devices reordered/renamed, one drain/source swapped.
    const NAND2_SHUFFLED: &str = "\
.SUBCKT NAND2V A B Z VDD VSS
M3 net9 B VSS VSS nch
M1 Z B VDD VDD pch
M0 Z A VDD VDD pch
M2 Z A net9 VSS nch
.ENDS
";

    const NOR2: &str = "\
.SUBCKT NOR2 A B Z VDD VSS
MP0 Z A mid VDD pch
MP1 mid B VDD VDD pch
MN0 Z A VSS VSS nch
MN1 Z B VSS VSS nch
.ENDS
";

    #[test]
    fn permuted_cell_hits_and_matches_cold_characterization() {
        let cache = CharCache::new();
        let opts = GenerateOptions::default();
        let a = cache
            .characterize(spice::parse_cell(NAND2).unwrap(), opts)
            .unwrap();
        let b = cache
            .characterize(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1, "{stats:?}");
        // The remapped model is bit-identical to a cold run.
        let cold =
            PreparedCell::characterize(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts).unwrap();
        assert_eq!(b.model, cold.model);
        assert_eq!(
            a.model.as_ref().unwrap().defect_simulations,
            b.model.as_ref().unwrap().defect_simulations
        );
    }

    #[test]
    fn planted_hash_collision_falls_back_to_simulation() {
        let cache = CharCache::new();
        let opts = GenerateOptions::default();
        let donor = PreparedCell::characterize(spice::parse_cell(NAND2).unwrap(), opts).unwrap();
        let victim = PreparedCell::prepare(spice::parse_cell(NOR2).unwrap()).unwrap();
        // Forge a collision: the NAND2 donor sits under the NOR2 key.
        cache.plant_collision(&victim.canonical, opts, &donor);
        let out = cache
            .characterize(spice::parse_cell(NOR2).unwrap(), opts)
            .unwrap();
        let stats = cache.stats();
        assert_eq!(stats.rejected, 1, "{stats:?}");
        assert_eq!(stats.hits, 0);
        let cold = PreparedCell::characterize(spice::parse_cell(NOR2).unwrap(), opts).unwrap();
        assert_eq!(out.model, cold.model, "fallback must simulate, not remap");
    }

    #[test]
    fn different_options_use_different_keys() {
        let cache = CharCache::new();
        let a = cache
            .characterize(
                spice::parse_cell(NAND2).unwrap(),
                GenerateOptions::default(),
            )
            .unwrap();
        let b = cache
            .characterize(
                spice::parse_cell(NAND2).unwrap(),
                GenerateOptions {
                    inter_transistor: true,
                    ..GenerateOptions::default()
                },
            )
            .unwrap();
        assert_eq!(cache.stats().hits, 0, "{:?}", cache.stats());
        assert_eq!(cache.stats().misses, 2);
        assert!(
            b.model.as_ref().unwrap().universe.len() > a.model.as_ref().unwrap().universe.len()
        );
    }

    #[test]
    fn inter_transistor_shorts_remap_through_the_net_bijection() {
        let cache = CharCache::new();
        let opts = GenerateOptions {
            inter_transistor: true,
            ..GenerateOptions::default()
        };
        cache
            .characterize(spice::parse_cell(NAND2).unwrap(), opts)
            .unwrap();
        let remapped = cache
            .characterize(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts)
            .unwrap();
        assert_eq!(cache.stats().hits, 1, "{:?}", cache.stats());
        let cold =
            PreparedCell::characterize(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts).unwrap();
        assert_eq!(remapped.model, cold.model);
    }

    #[test]
    fn truncating_budgets_bypass_the_cache() {
        let cache = CharCache::new();
        let opts = GenerateOptions::default();
        let budget = SimBudget {
            max_defects: Some(4),
            ..SimBudget::unlimited()
        };
        let p = cache
            .characterize_budgeted(spice::parse_cell(NAND2).unwrap(), opts, &budget)
            .unwrap();
        assert!(p.model.as_ref().unwrap().degraded);
        let stats = cache.stats();
        assert_eq!(stats.bypassed, 1);
        assert_eq!(stats.misses, 0);
    }

    #[test]
    fn wall_clock_only_budget_participates() {
        let cache = CharCache::new();
        let opts = GenerateOptions::default();
        let budget = SimBudget::unlimited();
        cache
            .characterize_budgeted(spice::parse_cell(NAND2).unwrap(), opts, &budget)
            .unwrap();
        let hit = cache
            .characterize_budgeted(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts, &budget)
            .unwrap();
        assert_eq!(cache.stats().hits, 1, "{:?}", cache.stats());
        let cold =
            PreparedCell::characterize(spice::parse_cell(NAND2_SHUFFLED).unwrap(), opts).unwrap();
        assert_eq!(hit.model, cold.model);
        assert_eq!(hit.universe, cold.universe);
    }

    #[test]
    fn certification_rejects_non_isomorphic_same_shape_cells() {
        // NAND2 vs NOR2: same device count and polarity split, different
        // wiring — certification must fail on the net mapping.
        let nand = spice::parse_cell(NAND2).unwrap();
        let nor = spice::parse_cell(NOR2).unwrap();
        let pa = PreparedCell::prepare(nand.clone()).unwrap();
        let pb = PreparedCell::prepare(nor.clone()).unwrap();
        assert!(certify_isomorphism(&nand, &pa.canonical, &nor, &pb.canonical).is_none());
    }

    #[test]
    fn certification_finds_drain_source_swaps() {
        let a = spice::parse_cell(NAND2).unwrap();
        let b = spice::parse_cell(NAND2_SHUFFLED).unwrap();
        let pa = PreparedCell::prepare(a.clone()).unwrap();
        let pb = PreparedCell::prepare(b.clone()).unwrap();
        let cert = certify_isomorphism(&a, &pa.canonical, &b, &pb.canonical).unwrap();
        // Every candidate net is mapped (this cell has no bulk-only nets).
        for (i, m) in cert.c2d.iter().enumerate() {
            assert!(m.is_some(), "net {i} unmapped");
        }
    }

    #[test]
    fn concurrent_lookups_elect_one_leader_per_key() {
        let cache = CharCache::new();
        let opts = GenerateOptions::default();
        let cells: Vec<Cell> = (0..8)
            .map(|i| {
                let src = if i % 2 == 0 { NAND2 } else { NAND2_SHUFFLED };
                spice::parse_cell(src).unwrap()
            })
            .collect();
        std::thread::scope(|scope| {
            let handles: Vec<_> = cells
                .iter()
                .map(|cell| {
                    let cache = &cache;
                    scope.spawn(move || cache.characterize(cell.clone(), opts).unwrap())
                })
                .collect();
            let results: Vec<PreparedCell> =
                handles.into_iter().map(|h| h.join().unwrap()).collect();
            for r in &results {
                // Whoever won leadership, every result matches its own
                // cold characterization bit for bit.
                let cold = PreparedCell::characterize(r.cell.clone(), opts).unwrap();
                assert_eq!(r.model, cold.model, "{}", r.cell.name());
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "{stats:?}");
        assert_eq!(stats.hits, 7);
    }
}
