//! Shared compile cache: content-addressed [`Prepared`] decks behind
//! `Arc` sharing, so concurrent jobs re-simulating the same circuit pay
//! compile cost once.
//!
//! The cache is keyed by a [`DeckKey`] — a deterministic 128-bit content
//! hash over everything that affects compilation: node names, the full
//! element list (names, netlist lines, connectivity, values, source
//! waveforms), model cards, initial conditions, behavioral-source closure
//! identity, and the lint policy the deck is compiled under. Two
//! structurally identical circuits built independently hash to the same
//! key; any value nudge produces a different one. Netlist lines are in
//! the key because lint diagnostics name them: a cached error or warning
//! must name the lines of the text that asked for it.
//!
//! Concurrency contract: a miss compiles at most once even when many
//! threads request the same deck simultaneously (the slot is a
//! [`OnceLock`]; late arrivals block on the winner's compile instead of
//! duplicating it), and compile *errors* are cached too — compilation
//! is deterministic, so retrying an invalid deck would only burn time.
//! Eviction is LRU over initialized entries, bounded by the configured
//! capacity; entries still compiling are never evicted.
//!
//! Each entry also carries an operating-point warm-start hint (the last
//! converged solution, like a SPICE nodeset): the serving layer stores
//! it after a successful job so the next job on the same deck converges
//! in a couple of Newton iterations instead of a cold ladder climb —
//! this, together with compile sharing, is where the serving throughput
//! multiple comes from.
//!
//! Netlist text has a front door of its own,
//! [`PreparedCache::get_or_compile_text`]: a text index maps the exact
//! bytes of a netlist, under one lint policy, to the key its parse
//! compiled to, so a hot deck is served without parsing or hashing its
//! circuit. [`parse_netlist`] is a pure function of its text (only
//! [`crate::parse::parse_netlist_file`] reads `.include` files), so equal
//! bytes always parse to the same circuit. A text is indexed only once
//! its deck compiled, and a hit is taken only while that deck is
//! resident and only after the text and policy are compared with the
//! ones its deck keeps. A deck keeps one text, which the LRU drops with
//! it, so the index holds at most one text per resident deck; another
//! text of the same deck (an inline comment apart, every card on the
//! same line) parses and hits its compile.

use crate::circuit::{Circuit, ElementKind, NodeId, Prepared};
use crate::error::{Result, SpiceError};
use crate::lint::LintPolicy;
use crate::parse::parse_netlist;
use ahfic_trace::TraceHandle;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Deterministic 128-bit content key of a circuit + compile policy.
///
/// Derived purely from deck content (no pointers except behavioral
/// closure identity, no randomness), so the same netlist hashes
/// identically across threads and runs of one process.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeckKey(u64, u64);

impl DeckKey {
    /// Content key of `circuit` compiled under `lint`.
    ///
    /// Computed structurally in one pass over the deck (a serving front
    /// end hashes every submitted job, so this sits on the hot path):
    /// every field that affects compilation, and each element's netlist
    /// line, is fed into two differently-salted deterministic SipHash
    /// streams. The element
    /// walk destructures each variant exhaustively — adding a field or
    /// variant without extending the key is a compile error, never a
    /// silent collision.
    pub fn of(circuit: &Circuit, lint: LintPolicy) -> DeckKey {
        let mut h = ForkHasher::new(0xA5, 0x5A);
        h.write_u8(match lint {
            LintPolicy::Deny => 0,
            LintPolicy::Warn => 1,
            LintPolicy::Off => 2,
        });
        h.write_usize(circuit.num_nodes());
        for i in 0..circuit.num_nodes() {
            circuit.node_name(NodeId(i)).hash(&mut h);
        }
        h.write_usize(circuit.elements().len());
        for (i, crate::circuit::Element { name, kind }) in circuit.elements().iter().enumerate() {
            name.hash(&mut h);
            circuit.element_line(i).hash(&mut h);
            hash_kind(&mut h, kind);
        }
        h.write_usize(circuit.bjt_models.len());
        for m in &circuit.bjt_models {
            hash_bjt_model(&mut h, m);
        }
        h.write_usize(circuit.diode_models.len());
        for m in &circuit.diode_models {
            hash_diode_model(&mut h, m);
        }
        h.write_usize(circuit.ics().len());
        for (node, v) in circuit.ics() {
            h.write_usize(node.0);
            h.write_u64(v.to_bits());
        }
        h.keys()
    }
}

impl std::fmt::Display for DeckKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}{:016x}", self.0, self.1)
    }
}

/// Two prefix-salted SipHash streams fed identical bytes.
/// `DefaultHasher::new()` uses fixed keys, so both are deterministic
/// across threads and runs of one process.
struct ForkHasher(DefaultHasher, DefaultHasher);

impl ForkHasher {
    fn new(salt_a: u8, salt_b: u8) -> Self {
        let mut a = DefaultHasher::new();
        a.write_u8(salt_a);
        let mut b = DefaultHasher::new();
        b.write_u8(salt_b);
        ForkHasher(a, b)
    }

    fn keys(&self) -> DeckKey {
        DeckKey(self.0.finish(), self.1.finish())
    }
}

impl Hasher for ForkHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
        self.1.write(bytes);
    }

    fn finish(&self) -> u64 {
        self.0.finish()
    }
}

/// Feeds one BJT model card into the key streams. Exhaustively
/// destructured: a model struct gaining a field without extending the
/// key is a compile error.
fn hash_bjt_model(h: &mut ForkHasher, m: &crate::model::BjtModel) {
    let crate::model::BjtModel {
        name,
        polarity,
        is_,
        bf,
        nf,
        vaf,
        ikf,
        ise,
        ne,
        br,
        nr,
        var,
        ikr,
        isc,
        nc,
        rb,
        irb,
        rbm,
        re,
        rc,
        cje,
        vje,
        mje,
        tf,
        xtf,
        vtf,
        itf,
        cjc,
        vjc,
        mjc,
        xcjc,
        tr,
        cjs,
        vjs,
        mjs,
        fc,
        kf,
        af,
    } = m;
    name.hash(h);
    h.write_u8(match polarity {
        crate::model::BjtPolarity::Npn => 0,
        crate::model::BjtPolarity::Pnp => 1,
    });
    for v in [
        is_, bf, nf, vaf, ikf, ise, ne, br, nr, var, ikr, isc, nc, rb, irb, rbm, re, rc, cje, vje,
        mje, tf, xtf, vtf, itf, cjc, vjc, mjc, xcjc, tr, cjs, vjs, mjs, fc, kf, af,
    ] {
        h.write_u64(v.to_bits());
    }
}

/// Feeds one diode model card into the key streams (same exhaustive
/// contract as [`hash_bjt_model`]).
fn hash_diode_model(h: &mut ForkHasher, m: &crate::model::DiodeModel) {
    let crate::model::DiodeModel {
        name,
        is_,
        n,
        rs,
        cjo,
        vj,
        m: grading,
        tt,
        fc,
        bv,
        kf,
        af,
    } = m;
    name.hash(h);
    for v in [is_, n, rs, cjo, vj, grading, tt, fc, bv, kf, af] {
        h.write_u64(v.to_bits());
    }
}

/// Feeds one element variant into the key streams. Exhaustive on both
/// the variant list and every variant's fields by design.
fn hash_kind(h: &mut ForkHasher, kind: &ElementKind) {
    let f = |h: &mut ForkHasher, v: f64| h.write_u64(v.to_bits());
    let node = |h: &mut ForkHasher, id: &NodeId| h.write_usize(id.0);
    let ac = |h: &mut ForkHasher, s: &crate::circuit::AcStimulus| {
        let crate::circuit::AcStimulus { mag, phase_deg } = s;
        f(h, *mag);
        f(h, *phase_deg);
    };
    let wave = |h: &mut ForkHasher, w: &crate::wave::SourceWave| {
        use crate::wave::SourceWave;
        match w {
            SourceWave::Dc(v) => {
                h.write_u8(0);
                f(h, *v);
            }
            SourceWave::Sin {
                offset,
                ampl,
                freq,
                delay,
                damping,
                phase_deg,
            } => {
                h.write_u8(1);
                for v in [offset, ampl, freq, delay, damping, phase_deg] {
                    f(h, *v);
                }
            }
            SourceWave::Pulse {
                v1,
                v2,
                delay,
                rise,
                fall,
                width,
                period,
            } => {
                h.write_u8(2);
                for v in [v1, v2, delay, rise, fall, width, period] {
                    f(h, *v);
                }
            }
            SourceWave::Pwl(points) => {
                h.write_u8(3);
                h.write_usize(points.len());
                for (t, v) in points {
                    f(h, *t);
                    f(h, *v);
                }
            }
        }
    };
    match kind {
        ElementKind::Resistor { p, n, r } => {
            h.write_u8(0);
            node(h, p);
            node(h, n);
            f(h, *r);
        }
        ElementKind::Capacitor { p, n, c } => {
            h.write_u8(1);
            node(h, p);
            node(h, n);
            f(h, *c);
        }
        ElementKind::Inductor { p, n, l } => {
            h.write_u8(2);
            node(h, p);
            node(h, n);
            f(h, *l);
        }
        ElementKind::Vsource {
            p,
            n,
            wave: w,
            ac: a,
        } => {
            h.write_u8(3);
            node(h, p);
            node(h, n);
            wave(h, w);
            ac(h, a);
        }
        ElementKind::Isource {
            p,
            n,
            wave: w,
            ac: a,
        } => {
            h.write_u8(4);
            node(h, p);
            node(h, n);
            wave(h, w);
            ac(h, a);
        }
        ElementKind::Vcvs { p, n, cp, cn, gain } => {
            h.write_u8(5);
            for id in [p, n, cp, cn] {
                node(h, id);
            }
            f(h, *gain);
        }
        ElementKind::Vccs { p, n, cp, cn, gm } => {
            h.write_u8(6);
            for id in [p, n, cp, cn] {
                node(h, id);
            }
            f(h, *gm);
        }
        ElementKind::Cccs {
            p,
            n,
            vsource,
            gain,
        } => {
            h.write_u8(7);
            node(h, p);
            node(h, n);
            vsource.hash(h);
            f(h, *gain);
        }
        ElementKind::Ccvs { p, n, vsource, r } => {
            h.write_u8(8);
            node(h, p);
            node(h, n);
            vsource.hash(h);
            f(h, *r);
        }
        ElementKind::Diode { p, n, model, area } => {
            h.write_u8(9);
            node(h, p);
            node(h, n);
            h.write_usize(*model);
            f(h, *area);
        }
        ElementKind::BehavioralV {
            p,
            n,
            controls,
            func,
        } => {
            h.write_u8(10);
            node(h, p);
            node(h, n);
            h.write_usize(controls.len());
            for id in controls {
                node(h, id);
            }
            // Closures `Debug`-print opaquely; their shared identity is
            // the only thing that distinguishes two behavioral bodies.
            h.write_u64(func.identity() as u64);
        }
        ElementKind::Bjt {
            c,
            b,
            e,
            s,
            model,
            area,
        } => {
            h.write_u8(11);
            for id in [c, b, e, s] {
                node(h, id);
            }
            h.write_usize(*model);
            f(h, *area);
        }
        ElementKind::MutualInd { l1, l2, k } => {
            h.write_u8(12);
            l1.hash(h);
            l2.hash(h);
            f(h, *k);
        }
    }
}

/// One cache slot: the compile cell plus its warm-start hint.
#[derive(Debug, Default)]
struct Entry {
    /// Compiled deck (or its deterministic compile error), produced
    /// exactly once however many threads miss concurrently.
    cell: OnceLock<std::result::Result<Arc<Prepared>, SpiceError>>,
    /// Last converged operating point on this deck, if any job stored
    /// one — a nodeset-style warm start for the next job.
    hint: Mutex<Option<Vec<f64>>>,
}

/// Bookkeeping per key, separate from the shared entry so the LRU clock
/// never contends with a compile in flight.
#[derive(Debug)]
struct Slot {
    entry: Arc<Entry>,
    last_used: u64,
    /// The one netlist text the text index maps to this deck, if any;
    /// its index entry leaves with the deck.
    text: Option<IndexedText>,
}

/// A netlist text the text index serves, kept in its deck's slot to
/// confirm each hit: an index entry is only a hash.
#[derive(Debug)]
struct IndexedText {
    /// The text's [`text_hash`], its key in [`Slots::texts`].
    hash: u64,
    lint: LintPolicy,
    text: Arc<str>,
}

/// The decks, and the text index in front of them, behind one lock.
#[derive(Debug, Default)]
struct Slots {
    decks: HashMap<DeckKey, Slot>,
    /// [`text_hash`] → the deck whose slot holds that text. Every key
    /// here is resident, and its slot's text has this hash.
    texts: HashMap<u64, DeckKey>,
}

/// Hash of a netlist text under a lint policy, taken before the cache
/// lock so that only a lookup and a comparison run under it.
fn text_hash(text: &str, lint: LintPolicy) -> u64 {
    let mut h = DefaultHasher::new();
    text.hash(&mut h);
    h.write_u8(lint as u8);
    h.finish()
}

/// Snapshot of cache effectiveness counters.
///
/// `#[non_exhaustive]`: obtained from [`PreparedCache::stats`] only.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Lookups that found an already-compiled deck.
    pub hits: u64,
    /// Lookups that had to (wait for a) compile.
    pub misses: u64,
    /// Entries evicted by the LRU policy.
    pub evictions: u64,
    /// Actual compiles performed (≤ misses under concurrency).
    pub compiles: u64,
    /// Netlist texts parsed by [`PreparedCache::get_or_compile_text`]:
    /// one per text the text index did not serve.
    pub parses: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// Lookups that found an already-compiled deck.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to (wait for a) compile.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted by the LRU policy.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Actual compiles performed (≤ misses under concurrency).
    pub fn compiles(&self) -> u64 {
        self.compiles
    }

    /// Netlist texts the cache parsed (the text index served the rest).
    pub fn parses(&self) -> u64 {
        self.parses
    }

    /// Entries currently resident.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Hit fraction of all lookups (0.0 when none happened yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A content-addressed, LRU-bounded cache of compiled decks shared
/// between concurrent analysis jobs.
///
/// ```
/// use ahfic_spice::cache::PreparedCache;
/// use ahfic_spice::circuit::Circuit;
/// use ahfic_spice::lint::LintPolicy;
///
/// let cache = PreparedCache::new(16);
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.vsource("V1", a, Circuit::gnd(), 1.0);
/// c.resistor("R1", a, Circuit::gnd(), 1e3);
/// let first = cache.get_or_compile(&c, LintPolicy::Deny)?;
/// let again = cache.get_or_compile(&c, LintPolicy::Deny)?;
/// assert!(!first.was_hit() && again.was_hit());
/// assert_eq!(cache.stats().compiles(), 1);
/// # Ok::<(), ahfic_spice::error::SpiceError>(())
/// ```
#[derive(Debug)]
pub struct PreparedCache {
    capacity: usize,
    slots: Mutex<Slots>,
    /// Monotonic LRU clock.
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    compiles: AtomicU64,
    parses: AtomicU64,
    trace: TraceHandle,
}

impl PreparedCache {
    /// An empty cache holding at most `capacity` compiled decks
    /// (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        PreparedCache::with_trace(capacity, TraceHandle::off())
    }

    /// Same, with `cache.hit` / `cache.miss` / `cache.evict` counters
    /// routed to a trace sink.
    pub fn with_trace(capacity: usize, trace: TraceHandle) -> Self {
        PreparedCache {
            capacity: capacity.max(1),
            slots: Mutex::new(Slots::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            compiles: AtomicU64::new(0),
            parses: AtomicU64::new(0),
            trace,
        }
    }

    #[allow(clippy::expect_used)]
    fn lock(&self) -> std::sync::MutexGuard<'_, Slots> {
        self.slots.lock().expect("cache lock poisoned")
    }

    fn count(&self, hit: bool) {
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.trace.tracer().counter("cache.hit", 1.0);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.trace.tracer().counter("cache.miss", 1.0);
        }
    }

    /// Returns the compiled deck for `circuit` under `lint`, compiling
    /// at most once per content key however many threads ask
    /// concurrently.
    ///
    /// # Errors
    ///
    /// Propagates the (cached) compile error of an invalid deck —
    /// lint rejections, netlist validation failures.
    pub fn get_or_compile(&self, circuit: &Circuit, lint: LintPolicy) -> Result<CachedDeck> {
        let key = DeckKey::of(circuit, lint);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let (entry, hit) = {
            let mut slots = self.lock();
            if let Some(slot) = slots.decks.get_mut(&key) {
                slot.last_used = now;
                let initialized = slot.entry.cell.get().is_some();
                (Arc::clone(&slot.entry), initialized)
            } else {
                // Make room first: evict the least-recently-used
                // *initialized* entries; a slot still compiling is
                // pinned (its waiters hold the Arc anyway).
                while slots.decks.len() >= self.capacity {
                    let victim = slots
                        .decks
                        .iter()
                        .filter(|(_, s)| s.entry.cell.get().is_some())
                        .min_by_key(|(_, s)| s.last_used)
                        .map(|(k, _)| *k);
                    let Some(k) = victim else { break };
                    if let Some(IndexedText { hash, .. }) =
                        slots.decks.remove(&k).and_then(|slot| slot.text)
                    {
                        slots.texts.remove(&hash);
                    }
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.trace.tracer().counter("cache.evict", 1.0);
                }
                let entry = Arc::new(Entry::default());
                slots.decks.insert(
                    key,
                    Slot {
                        entry: Arc::clone(&entry),
                        last_used: now,
                        text: None,
                    },
                );
                (entry, false)
            }
        };
        self.count(hit);
        let compiled = entry.cell.get_or_init(|| {
            self.compiles.fetch_add(1, Ordering::Relaxed);
            Prepared::compile_with(circuit, lint).map(Arc::new)
        });
        match compiled {
            Ok(prepared) => Ok(CachedDeck {
                prepared: Arc::clone(prepared),
                entry,
                key,
                hit,
            }),
            Err(e) => Err(e.clone()),
        }
    }

    /// Returns the compiled deck for netlist `text` under `lint`. A text
    /// the index knows, whose deck is resident and compiled, is a hit
    /// that neither parses nor hashes a circuit; any other text is
    /// parsed and goes through [`PreparedCache::get_or_compile`], and
    /// is indexed once its deck compiled, if that deck has no text yet.
    /// Either way the checkout counts as one hit or one miss.
    ///
    /// # Errors
    ///
    /// The text's [`SpiceError::Parse`] (never indexed, so a failing
    /// text parses, and fails, on every call), or the deck's (cached)
    /// compile error, as [`PreparedCache::get_or_compile`].
    pub fn get_or_compile_text(&self, text: &str, lint: LintPolicy) -> Result<CachedDeck> {
        let hash = text_hash(text, lint);
        let now = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        let indexed = {
            let mut slots = self.lock();
            let Slots { decks, texts } = &mut *slots;
            texts.get(&hash).and_then(|key| {
                let slot = decks.get_mut(key)?;
                let known = slot.text.as_ref()?;
                if known.lint != lint || *known.text != *text {
                    return None;
                }
                let Some(Ok(prepared)) = slot.entry.cell.get() else {
                    return None;
                };
                slot.last_used = now;
                Some(CachedDeck {
                    prepared: Arc::clone(prepared),
                    entry: Arc::clone(&slot.entry),
                    key: *key,
                    hit: true,
                })
            })
        };
        if let Some(deck) = indexed {
            self.count(true);
            return Ok(deck);
        }
        self.parses.fetch_add(1, Ordering::Relaxed);
        let deck = self.get_or_compile(&parse_netlist(text)?, lint)?;
        let text = Arc::from(text);
        let mut slots = self.lock();
        let Slots { decks, texts } = &mut *slots;
        // The deck may have been evicted since its checkout, or its text
        // (or another with the same hash) indexed by a concurrent miss.
        if let Some(slot) = decks.get_mut(&deck.key) {
            if slot.text.is_none() && !texts.contains_key(&hash) {
                texts.insert(hash, deck.key);
                slot.text = Some(IndexedText { hash, lint, text });
            }
        }
        Ok(deck)
    }

    /// Effectiveness counters plus current residency.
    pub fn stats(&self) -> CacheStats {
        let entries = self.lock().decks.len();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            compiles: self.compiles.load(Ordering::Relaxed),
            parses: self.parses.load(Ordering::Relaxed),
            entries,
        }
    }

    /// Number of decks currently resident.
    pub fn len(&self) -> usize {
        self.stats().entries
    }

    /// Whether the cache holds no decks.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// A checked-out deck: shared compiled circuit plus access to the
/// entry's warm-start hint.
#[derive(Clone, Debug)]
pub struct CachedDeck {
    prepared: Arc<Prepared>,
    entry: Arc<Entry>,
    key: DeckKey,
    hit: bool,
}

impl CachedDeck {
    /// The shared compiled deck.
    pub fn prepared(&self) -> &Prepared {
        &self.prepared
    }

    /// The content key this deck is cached under (what a serving worker
    /// indexes its per-deck state by).
    pub fn key(&self) -> DeckKey {
        self.key
    }

    /// Shared ownership of the compiled deck (what
    /// [`Session::from_arc`](crate::analysis::Session::from_arc)
    /// takes).
    pub fn prepared_arc(&self) -> Arc<Prepared> {
        Arc::clone(&self.prepared)
    }

    /// Whether this checkout found an already-compiled deck.
    pub fn was_hit(&self) -> bool {
        self.hit
    }

    /// The last stored operating-point hint for this deck, if any.
    pub fn op_hint(&self) -> Option<Vec<f64>> {
        #[allow(clippy::expect_used)]
        self.entry.hint.lock().expect("hint lock poisoned").clone()
    }

    /// Stores a converged solution as the warm-start hint for
    /// subsequent jobs on this deck.
    pub fn store_op_hint(&self, x: &[f64]) {
        #[allow(clippy::expect_used)]
        let mut hint = self.entry.hint.lock().expect("hint lock poisoned");
        *hint = Some(x.to_vec());
    }

    /// Discards the warm-start hint so the next job on this deck cold
    /// starts. The serving layer's retry path calls this before a second
    /// attempt: a poisoned (e.g. non-finite) hint must not re-kill the
    /// retry it caused.
    pub fn clear_op_hint(&self) {
        #[allow(clippy::expect_used)]
        let mut hint = self.entry.hint.lock().expect("hint lock poisoned");
        *hint = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn divider(r2: f64) -> Circuit {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.vsource("V1", a, Circuit::gnd(), 2.0);
        c.resistor("R1", a, b, 1e3);
        c.resistor("R2", b, Circuit::gnd(), r2);
        c
    }

    #[test]
    fn key_is_deterministic_and_value_sensitive() {
        let k1 = DeckKey::of(&divider(1e3), LintPolicy::Deny);
        let k2 = DeckKey::of(&divider(1e3), LintPolicy::Deny);
        assert_eq!(k1, k2, "independently built identical decks share a key");
        assert_ne!(k1, DeckKey::of(&divider(1.001e3), LintPolicy::Deny));
        assert_ne!(
            k1,
            DeckKey::of(&divider(1e3), LintPolicy::Off),
            "lint policy is part of the key"
        );
        assert_eq!(format!("{k1}").len(), 32);
    }

    #[test]
    fn behavioral_identity_distinguishes_decks() {
        use crate::circuit::BehavioralFn;
        let build = |f: BehavioralFn| {
            let mut c = Circuit::new();
            let a = c.node("a");
            let o = c.node("o");
            c.vsource("V1", a, Circuit::gnd(), 1.0);
            c.resistor("R1", a, Circuit::gnd(), 1e3);
            c.behavioral_vsource("B1", o, Circuit::gnd(), &[a], f);
            c.resistor("RL", o, Circuit::gnd(), 1e3);
            c
        };
        let f1 = BehavioralFn::new(|v: &[f64]| v[0] * 2.0);
        let f2 = BehavioralFn::new(|v: &[f64]| v[0] * 3.0);
        let ka = DeckKey::of(&build(f1.clone()), LintPolicy::Deny);
        let kb = DeckKey::of(&build(f2), LintPolicy::Deny);
        let ka2 = DeckKey::of(&build(f1), LintPolicy::Deny);
        assert_ne!(ka, kb, "different closures, different decks");
        assert_eq!(ka, ka2, "same shared closure, same deck");
    }

    #[test]
    fn hit_and_compile_accounting() {
        let cache = PreparedCache::new(8);
        let c = divider(1e3);
        let d1 = cache.get_or_compile(&c, LintPolicy::Deny).unwrap();
        assert!(!d1.was_hit());
        let d2 = cache.get_or_compile(&c, LintPolicy::Deny).unwrap();
        assert!(d2.was_hit());
        let s = cache.stats();
        assert_eq!((s.hits(), s.misses(), s.compiles()), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        // Both checkouts share the same compiled allocation.
        assert!(std::ptr::eq(d1.prepared(), d2.prepared()));
    }

    #[test]
    fn lru_evicts_coldest_initialized_entry() {
        let cache = PreparedCache::new(2);
        let a = divider(1e3);
        let b = divider(2e3);
        let c = divider(3e3);
        cache.get_or_compile(&a, LintPolicy::Deny).unwrap();
        cache.get_or_compile(&b, LintPolicy::Deny).unwrap();
        // Touch `a` so `b` is the LRU victim.
        cache.get_or_compile(&a, LintPolicy::Deny).unwrap();
        cache.get_or_compile(&c, LintPolicy::Deny).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions(), 1);
        // `a` is still hot (hit); `b` was evicted (recompile).
        assert!(cache
            .get_or_compile(&a, LintPolicy::Deny)
            .unwrap()
            .was_hit());
        assert!(!cache
            .get_or_compile(&b, LintPolicy::Deny)
            .unwrap()
            .was_hit());
    }

    #[test]
    fn compile_errors_are_cached() {
        // A deck the Deny lint rejects: floating node behind a capacitor.
        let mut c = Circuit::new();
        let a = c.node("a");
        let f = c.node("floating");
        c.vsource("V1", a, Circuit::gnd(), 1.0);
        c.resistor("R1", a, Circuit::gnd(), 1e3);
        c.capacitor("C1", f, Circuit::gnd(), 1e-12);
        let cache = PreparedCache::new(4);
        let e1 = cache.get_or_compile(&c, LintPolicy::Deny).unwrap_err();
        let e2 = cache.get_or_compile(&c, LintPolicy::Deny).unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!(cache.stats().compiles(), 1, "the failure was cached");
        // Under a different policy the same circuit compiles fine.
        assert!(cache.get_or_compile(&c, LintPolicy::Off).is_ok());
    }

    #[test]
    fn concurrent_misses_compile_once() {
        let cache = std::sync::Arc::new(PreparedCache::new(8));
        let c = divider(1e3);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = &cache;
                let c = &c;
                s.spawn(move || {
                    cache.get_or_compile(c, LintPolicy::Deny).unwrap();
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.compiles(), 1, "OnceLock collapses concurrent misses");
        assert_eq!(stats.hits() + stats.misses(), 8);
    }

    fn divider_text(r2: &str) -> String {
        format!("* divider\nV1 a 0 2\nR1 a b 1k\nR2 b 0 {r2}\n.end\n")
    }

    #[test]
    fn text_index_serves_hot_texts_without_parsing() {
        let cache = PreparedCache::new(8);
        let text = divider_text("1k");
        let first = cache.get_or_compile_text(&text, LintPolicy::Deny).unwrap();
        let again = cache.get_or_compile_text(&text, LintPolicy::Deny).unwrap();
        assert!(!first.was_hit() && again.was_hit());
        assert!(std::ptr::eq(first.prepared(), again.prepared()));
        // The text's key is its parse's key, which a circuit checkout
        // hits too.
        let parsed = parse_netlist(&text).unwrap();
        assert_eq!(again.key(), DeckKey::of(&parsed, LintPolicy::Deny));
        assert!(cache
            .get_or_compile(&parsed, LintPolicy::Deny)
            .unwrap()
            .was_hit());
        // Another lint policy is another deck, and another index entry.
        assert!(!cache
            .get_or_compile_text(&text, LintPolicy::Off)
            .unwrap()
            .was_hit());
        let s = cache.stats();
        assert_eq!((s.parses(), s.compiles()), (2, 2));
        assert_eq!((s.hits(), s.misses()), (2, 2), "one count per checkout");
    }

    #[test]
    fn evicted_deck_takes_its_texts_along() {
        let cache = PreparedCache::new(2);
        let (a, b, c) = (divider_text("1k"), divider_text("2k"), divider_text("3k"));
        for text in [&a, &b, &a, &c] {
            cache.get_or_compile_text(text, LintPolicy::Deny).unwrap();
        }
        // `b` was the LRU victim: its text parses and compiles again.
        let s = cache.stats();
        assert_eq!((s.parses(), s.compiles(), s.evictions()), (3, 3, 1));
        assert!(!cache
            .get_or_compile_text(&b, LintPolicy::Deny)
            .unwrap()
            .was_hit());
        assert_eq!((cache.stats().parses(), cache.stats().compiles()), (4, 4));
        let slots = cache.lock();
        assert_eq!(
            slots.texts.len(),
            slots.decks.len(),
            "every resident deck, one text each"
        );
    }

    #[test]
    fn index_hits_are_confirmed_against_text_and_policy() {
        let cache = PreparedCache::new(4);
        let (a, b) = (divider_text("1k"), divider_text("2k"));
        let deck_a = cache.get_or_compile_text(&a, LintPolicy::Deny).unwrap();
        // Forge hash collisions: `b`, and `a` under another policy, lead
        // to `a`'s Deny deck. Neither may be served from it.
        for (text, lint) in [(&b, LintPolicy::Deny), (&a, LintPolicy::Off)] {
            cache
                .lock()
                .texts
                .insert(text_hash(text, lint), deck_a.key());
            let deck = cache.get_or_compile_text(text, lint).unwrap();
            assert!(!deck.was_hit());
            assert_eq!(deck.key(), DeckKey::of(&parse_netlist(text).unwrap(), lint));
        }
        assert_eq!(cache.stats().parses(), 3);
    }

    #[test]
    fn cached_lint_errors_name_their_own_texts_lines() {
        let deck = "V1 a 0 1\nR1 a 0 1k\nC1 f 0 1p\n";
        let shifted = format!("* two comment lines\n* above the deck\n{deck}");
        for through_text in [true, false] {
            let cache = PreparedCache::new(4);
            let compile = |text: &str| {
                let err = if through_text {
                    cache.get_or_compile_text(text, LintPolicy::Deny)
                } else {
                    cache.get_or_compile(&parse_netlist(text).unwrap(), LintPolicy::Deny)
                };
                err.unwrap_err().to_string()
            };
            let (first, second) = (compile(deck), compile(&shifted));
            assert!(first.contains("C1 (line 3)"), "{first}");
            assert!(second.contains("C1 (line 5)"), "{second}");
            assert_eq!(cache.stats().compiles(), 2, "two line layouts, two decks");
        }
    }

    #[test]
    fn warm_start_hint_round_trips() {
        let cache = PreparedCache::new(4);
        let c = divider(1e3);
        let d = cache.get_or_compile(&c, LintPolicy::Deny).unwrap();
        assert!(d.op_hint().is_none());
        d.store_op_hint(&[1.0, 0.5, -0.0005]);
        // A later checkout of the same deck sees the hint.
        let d2 = cache.get_or_compile(&c, LintPolicy::Deny).unwrap();
        assert_eq!(d2.op_hint().as_deref(), Some(&[1.0, 0.5, -0.0005][..]));
    }
}
