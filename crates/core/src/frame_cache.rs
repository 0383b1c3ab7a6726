//! Content-addressed memoization of per-frame simulation results.
//!
//! The experiment sweeps (random-sampling trials, per-seed/per-mode
//! grids, representative re-simulation) render and time the *same*
//! frames many times over. Because PR 1 made per-frame simulation
//! independent — every frame is rendered from scratch and timed on a
//! freshly reset GPU — a frame's [`FrameActivity`] is a pure function
//! of `(frame content, render config, shader table)` and its
//! [`FrameStats`] a pure function of `(frame content, GPU config,
//! shader table)`, plus the rig shape on a multi-GPU rig
//! ([`rig_stats_config_fingerprint`]). That purity is exactly what
//! makes memoization sound: this module hashes the full frame content
//! (meshes, transforms, shader bindings, textures, blend/depth state)
//! together with the config into a 128-bit key, and caches results
//! process-wide in [`megsim_exec::ConcurrentCache`] instances.
//!
//! The caches are transparent by construction — a hit returns a value
//! that recomputation would reproduce bit for bit, so enabling or
//! disabling the cache (or racing inserts, or dropping entries at
//! capacity) can never change pipeline output, only wall-clock time.
//! [`set_enabled`] (the CLI's `--no-frame-cache`) exists for
//! benchmarking and for double-checking that property, which
//! `tests/frame_cache.rs` does on every run.
//!
//! ## Tiers
//!
//! A lookup walks up to three tiers, each transparent in the same
//! sense:
//!
//! 1. **Memory** — the process-wide [`ConcurrentCache`] maps.
//! 2. **Disk** — an optional [`megsim_store::Store`] attached with
//!    [`set_store_dir`] (the CLI's `--cache-dir`). Reads are
//!    CRC-verified and re-decoded; anything torn or corrupt is a miss.
//!    Computed results are written behind (buffered in the store,
//!    flushed to a sealed segment by [`flush_store`] or on drop), so a
//!    later process starts warm.
//! 3. **Compute** — render / simulate the frame.
//!
//! The miss path (disk + compute) runs under a
//! [`megsim_exec::SingleFlight`] keyed by the same fingerprint, so
//! concurrent identical frames — e.g. two batch campaigns over
//! overlapping traces — simulate once and share the result.
//!
//! Per-tier counters are kept process-wide (see [`report`]) and
//! per-thread ([`take_thread_counts`]); the batch runner uses the
//! latter to attribute tiers to campaigns, which works because a
//! campaign's nested parallel calls run inline on its worker thread.

use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use megsim_exec::{ConcurrentCache, FlightOutcome, SingleFlight};
use megsim_funcsim::{FrameActivity, RenderConfig};
use megsim_gfx::draw::{BlendMode, DrawCall, Frame};
use megsim_gfx::geometry::Mesh;
use megsim_gfx::shader::ShaderTable;
use megsim_store::{codec, Store, StoreStats};
use megsim_timing::{FrameStats, GpuConfig, MultiGpuConfig};

use parking_lot::Mutex;

/// Entries per cache (activity and stats each); beyond this, inserts
/// are dropped and the pipeline just recomputes.
const CACHE_CAPACITY: usize = 1 << 14;

static ENABLED: AtomicBool = AtomicBool::new(true);
static ACTIVITY: OnceLock<ConcurrentCache<FrameActivity>> = OnceLock::new();
static STATS: OnceLock<ConcurrentCache<FrameStats>> = OnceLock::new();
static ACTIVITY_FLIGHTS: OnceLock<SingleFlight<FrameActivity>> = OnceLock::new();
static STATS_FLIGHTS: OnceLock<SingleFlight<FrameStats>> = OnceLock::new();
static STORE: Mutex<Option<Arc<Store>>> = Mutex::new(None);

fn activity_cache() -> &'static ConcurrentCache<FrameActivity> {
    ACTIVITY.get_or_init(|| ConcurrentCache::new(CACHE_CAPACITY))
}

fn stats_cache() -> &'static ConcurrentCache<FrameStats> {
    STATS.get_or_init(|| ConcurrentCache::new(CACHE_CAPACITY))
}

fn activity_flights() -> &'static SingleFlight<FrameActivity> {
    ACTIVITY_FLIGHTS.get_or_init(SingleFlight::new)
}

fn stats_flights() -> &'static SingleFlight<FrameStats> {
    STATS_FLIGHTS.get_or_init(SingleFlight::new)
}

fn store() -> Option<Arc<Store>> {
    STORE.lock().clone()
}

/// Attaches (or replaces) the persistent disk tier, opening the store
/// under `dir` and rebuilding its index from the segments found there.
///
/// Corrupt or torn segment data is tolerated (it degrades to misses);
/// only directory-level problems — cannot create, cannot list — return
/// an error. Callers should treat that error as a *warning* and keep
/// running cold: a missing disk tier must never fail a run, which is
/// why this function's only failure mode is "no store attached".
pub fn set_store_dir(dir: &Path) -> io::Result<()> {
    let opened = Arc::new(Store::open(dir)?);
    let mut slot = STORE.lock();
    *slot = Some(opened);
    Ok(())
}

/// Detaches the disk tier (flushing it best-effort via `Drop` if this
/// was the last reference). Subsequent lookups are memory + compute
/// only.
pub fn detach_store() {
    *STORE.lock() = None;
}

/// Flushes write-behind results to a durable sealed segment, returning
/// the number of records sealed. A no-op `Ok(0)` without a store.
pub fn flush_store() -> io::Result<u64> {
    match store() {
        Some(s) => s.flush(),
        None => Ok(0),
    }
}

/// Statistics of the attached store, if any.
pub fn store_stats() -> Option<StoreStats> {
    store().map(|s| s.stats())
}

/// Whether a persistent disk tier is currently attached.
pub fn has_store() -> bool {
    STORE.lock().is_some()
}

/// Globally enables or disables both frame caches (they default to
/// enabled). Disabling does not drop existing entries; re-enabling
/// resumes hitting them.
pub fn set_enabled(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// Whether the frame caches are currently consulted.
pub fn is_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Drops every cached in-memory entry and zeroes all tier counters.
/// The attached store (if any) is untouched: clearing memory and
/// re-running is exactly the cross-process warm-start path.
pub fn clear() {
    activity_cache().clear();
    stats_cache().clear();
    GLOBAL_TIERS.reset();
    LOCAL_TIERS.with(|c| c.set(TierCounts::ZERO));
}

/// Which result kind a lookup was for.
#[derive(Clone, Copy)]
enum Kind {
    Activity,
    Stats,
}

/// Which tier ultimately served a lookup.
#[derive(Clone, Copy)]
enum Tier {
    Memory,
    Disk,
    Shared,
    Computed,
}

/// Per-tier lookup counts for one scope (a thread, a campaign, or the
/// whole process). `memory`/`disk`/`shared` are hits at the named tier;
/// `computed` lookups fell through everything and simulated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TierCounts {
    /// Activity lookups served by the in-memory cache.
    pub activity_memory: u64,
    /// Activity lookups served by the disk store.
    pub activity_disk: u64,
    /// Activity lookups served by a concurrent identical computation.
    pub activity_shared: u64,
    /// Activity lookups that computed.
    pub activity_computed: u64,
    /// Stats lookups served by the in-memory cache.
    pub stats_memory: u64,
    /// Stats lookups served by the disk store.
    pub stats_disk: u64,
    /// Stats lookups served by a concurrent identical computation.
    pub stats_shared: u64,
    /// Stats lookups that computed.
    pub stats_computed: u64,
}

impl TierCounts {
    /// All-zero counts (`Default` is identical; this one is `const`).
    pub const ZERO: TierCounts = TierCounts {
        activity_memory: 0,
        activity_disk: 0,
        activity_shared: 0,
        activity_computed: 0,
        stats_memory: 0,
        stats_disk: 0,
        stats_shared: 0,
        stats_computed: 0,
    };

    fn add(&mut self, kind: Kind, tier: Tier) {
        let slot = match (kind, tier) {
            (Kind::Activity, Tier::Memory) => &mut self.activity_memory,
            (Kind::Activity, Tier::Disk) => &mut self.activity_disk,
            (Kind::Activity, Tier::Shared) => &mut self.activity_shared,
            (Kind::Activity, Tier::Computed) => &mut self.activity_computed,
            (Kind::Stats, Tier::Memory) => &mut self.stats_memory,
            (Kind::Stats, Tier::Disk) => &mut self.stats_disk,
            (Kind::Stats, Tier::Shared) => &mut self.stats_shared,
            (Kind::Stats, Tier::Computed) => &mut self.stats_computed,
        };
        *slot += 1;
    }

    /// Total lookups in this scope.
    pub fn lookups(&self) -> u64 {
        self.hits() + self.activity_computed + self.stats_computed
    }

    /// Lookups served without computing (any hit tier).
    pub fn hits(&self) -> u64 {
        self.activity_memory
            + self.activity_disk
            + self.activity_shared
            + self.stats_memory
            + self.stats_disk
            + self.stats_shared
    }

    /// Lookups served from disk.
    pub fn disk_hits(&self) -> u64 {
        self.activity_disk + self.stats_disk
    }

    /// Hit rate in `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.lookups();
        if total == 0 {
            0.0
        } else {
            self.hits() as f64 / total as f64
        }
    }

    /// Accumulates `other` into `self` (campaign → batch totals).
    pub fn merge(&mut self, other: &TierCounts) {
        self.activity_memory += other.activity_memory;
        self.activity_disk += other.activity_disk;
        self.activity_shared += other.activity_shared;
        self.activity_computed += other.activity_computed;
        self.stats_memory += other.stats_memory;
        self.stats_disk += other.stats_disk;
        self.stats_shared += other.stats_shared;
        self.stats_computed += other.stats_computed;
    }

    /// One-line `mem/disk/shared/computed` summary across both kinds.
    pub fn summary(&self) -> String {
        format!(
            "mem {} disk {} shared {} computed {} ({:.1}% hit)",
            self.activity_memory + self.stats_memory,
            self.activity_disk + self.stats_disk,
            self.activity_shared + self.stats_shared,
            self.activity_computed + self.stats_computed,
            self.hit_rate() * 100.0,
        )
    }
}

/// Process-wide tier counters (atomics; `stats()` reads are
/// per-counter consistent, which is all the reports need).
struct GlobalTiers {
    slots: [AtomicU64; 8],
}

impl GlobalTiers {
    const fn new() -> Self {
        Self {
            slots: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
        }
    }

    fn index(kind: Kind, tier: Tier) -> usize {
        let k = match kind {
            Kind::Activity => 0,
            Kind::Stats => 4,
        };
        k + match tier {
            Tier::Memory => 0,
            Tier::Disk => 1,
            Tier::Shared => 2,
            Tier::Computed => 3,
        }
    }

    fn add(&self, kind: Kind, tier: Tier) {
        self.slots[Self::index(kind, tier)].fetch_add(1, Ordering::Relaxed);
    }

    fn reset(&self) {
        for slot in &self.slots {
            slot.store(0, Ordering::Relaxed);
        }
    }

    fn counts(&self) -> TierCounts {
        let v = |i: usize| self.slots[i].load(Ordering::Relaxed);
        TierCounts {
            activity_memory: v(0),
            activity_disk: v(1),
            activity_shared: v(2),
            activity_computed: v(3),
            stats_memory: v(4),
            stats_disk: v(5),
            stats_shared: v(6),
            stats_computed: v(7),
        }
    }
}

static GLOBAL_TIERS: GlobalTiers = GlobalTiers::new();

thread_local! {
    /// This thread's tier counts since the last [`take_thread_counts`].
    static LOCAL_TIERS: Cell<TierCounts> = const { Cell::new(TierCounts::ZERO) };
}

fn count(kind: Kind, tier: Tier) {
    GLOBAL_TIERS.add(kind, tier);
    LOCAL_TIERS.with(|c| {
        let mut counts = c.get();
        counts.add(kind, tier);
        c.set(counts);
    });
}

/// Returns and zeroes the calling thread's tier counts.
///
/// This is how the batch runner attributes cache tiers to campaigns: a
/// campaign runs entirely on one worker thread (its nested parallel
/// calls degrade to sequential there), so the thread's counts between
/// two `take` calls are that campaign's. When a single-flight leader
/// computes a frame that followers share, the disk/compute count lands
/// on the leader's campaign and each follower counts one `shared`.
pub fn take_thread_counts() -> TierCounts {
    LOCAL_TIERS.with(|c| c.replace(TierCounts::ZERO))
}

/// A snapshot of both caches' statistics, for experiment reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FrameCacheReport {
    /// Characterization-pass lookups served by the in-memory cache.
    pub activity_hits: u64,
    /// Characterization-pass lookups served by the disk store.
    pub activity_disk_hits: u64,
    /// Characterization-pass lookups served by a concurrent identical
    /// in-flight computation.
    pub activity_shared_hits: u64,
    /// Characterization-pass lookups that fell through every tier and
    /// computed.
    pub activity_misses: u64,
    /// Entries in the activity cache.
    pub activity_entries: usize,
    /// Timing-pass lookups served by the in-memory cache.
    pub stats_hits: u64,
    /// Timing-pass lookups served by the disk store.
    pub stats_disk_hits: u64,
    /// Timing-pass lookups served by a concurrent identical in-flight
    /// computation.
    pub stats_shared_hits: u64,
    /// Timing-pass lookups that fell through every tier and computed.
    pub stats_misses: u64,
    /// Entries in the stats cache.
    pub stats_entries: usize,
}

impl FrameCacheReport {
    /// Overall hit rate across both caches and all hit tiers, in
    /// `[0, 1]` (0 when no lookups happened).
    pub fn hit_rate(&self) -> f64 {
        let hits = self.activity_hits
            + self.activity_disk_hits
            + self.activity_shared_hits
            + self.stats_hits
            + self.stats_disk_hits
            + self.stats_shared_hits;
        let total = hits + self.activity_misses + self.stats_misses;
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    /// One-line human-readable summary for experiment logs. The
    /// `key value` pairs are stable and machine-parseable (the
    /// cross-process warm-start test greps them).
    pub fn summary(&self) -> String {
        format!(
            "frame cache: activity mem {} disk {} shared {} computed {}, \
             stats mem {} disk {} shared {} computed {} \
             ({:.1}% hit, {} entries)",
            self.activity_hits,
            self.activity_disk_hits,
            self.activity_shared_hits,
            self.activity_misses,
            self.stats_hits,
            self.stats_disk_hits,
            self.stats_shared_hits,
            self.stats_misses,
            self.hit_rate() * 100.0,
            self.activity_entries + self.stats_entries,
        )
    }

    /// The counters accumulated since `earlier` (entries stay at their
    /// current values — they are gauges, not counters). This is what
    /// turns process-lifetime totals into per-campaign numbers:
    /// snapshot at campaign start, delta at the end.
    pub fn delta_since(&self, earlier: &FrameCacheReport) -> FrameCacheReport {
        FrameCacheReport {
            activity_hits: self.activity_hits.saturating_sub(earlier.activity_hits),
            activity_disk_hits: self
                .activity_disk_hits
                .saturating_sub(earlier.activity_disk_hits),
            activity_shared_hits: self
                .activity_shared_hits
                .saturating_sub(earlier.activity_shared_hits),
            activity_misses: self.activity_misses.saturating_sub(earlier.activity_misses),
            activity_entries: self.activity_entries,
            stats_hits: self.stats_hits.saturating_sub(earlier.stats_hits),
            stats_disk_hits: self.stats_disk_hits.saturating_sub(earlier.stats_disk_hits),
            stats_shared_hits: self
                .stats_shared_hits
                .saturating_sub(earlier.stats_shared_hits),
            stats_misses: self.stats_misses.saturating_sub(earlier.stats_misses),
            stats_entries: self.stats_entries,
        }
    }
}

/// Current statistics of both caches (process-lifetime totals; combine
/// with [`FrameCacheReport::delta_since`] for per-campaign numbers).
pub fn report() -> FrameCacheReport {
    let t = GLOBAL_TIERS.counts();
    FrameCacheReport {
        activity_hits: t.activity_memory,
        activity_disk_hits: t.activity_disk,
        activity_shared_hits: t.activity_shared,
        activity_misses: t.activity_computed,
        activity_entries: activity_cache().len(),
        stats_hits: t.stats_memory,
        stats_disk_hits: t.stats_disk,
        stats_shared_hits: t.stats_shared,
        stats_misses: t.stats_computed,
        stats_entries: stats_cache().len(),
    }
}

/// A 128-bit streaming content fingerprint: two 64-bit lanes fed with
/// every word, each mixed splitmix64-style. Not cryptographic — it only
/// needs to make accidental collisions among a few thousand frames
/// astronomically unlikely (≈ 2⁻⁹⁷ for 10⁴ distinct frames).
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    h0: u64,
    h1: u64,
}

impl Fingerprint {
    /// A fresh fingerprint with fixed, distinct lane seeds.
    pub fn new() -> Self {
        Self {
            h0: 0xcbf2_9ce4_8422_2325,
            h1: 0x9e37_79b9_7f4a_7c15,
        }
    }

    #[inline]
    fn mix(h: u64, v: u64) -> u64 {
        let mut x = (h ^ v).wrapping_mul(0x2545_f491_4f6c_dd1d);
        x ^= x >> 29;
        x = x.wrapping_mul(0xd6e8_feb8_6659_fd93);
        x ^= x >> 32;
        x
    }

    /// Feeds one 64-bit word.
    #[inline]
    pub fn write_u64(&mut self, v: u64) {
        self.h0 = Self::mix(self.h0, v);
        self.h1 = Self::mix(self.h1, v ^ 0xa5a5_a5a5_a5a5_a5a5);
    }

    /// Feeds one 32-bit word.
    #[inline]
    pub fn write_u32(&mut self, v: u32) {
        self.write_u64(u64::from(v));
    }

    /// Feeds an `f32` by bit pattern (so `-0.0` and `0.0` differ —
    /// exactness matters more than float semantics here).
    #[inline]
    pub fn write_f32(&mut self, v: f32) {
        self.write_u32(v.to_bits());
    }

    /// Feeds a byte slice (word-at-a-time, length-prefixed).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    /// The 128-bit digest.
    pub fn finish(&self) -> u128 {
        (u128::from(self.h0) << 64) | u128::from(self.h1)
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

fn mesh_fingerprint(mesh: &Mesh) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(mesh.vertices.len() as u64);
    for v in &mesh.vertices {
        fp.write_f32(v.position.x);
        fp.write_f32(v.position.y);
        fp.write_f32(v.position.z);
        fp.write_f32(v.normal.x);
        fp.write_f32(v.normal.y);
        fp.write_f32(v.normal.z);
        fp.write_f32(v.uv.x);
        fp.write_f32(v.uv.y);
    }
    fp.write_u64(mesh.indices.len() as u64);
    for &i in &mesh.indices {
        fp.write_u32(i);
    }
    fp.write_u64(mesh.base_address);
    fp.finish()
}

fn write_draw(fp: &mut Fingerprint, draw: &DrawCall, meshes: &mut HashMap<*const Mesh, u128>) {
    // Meshes are shared via `Arc` across draws (and frames), so hash
    // each distinct mesh once per frame and feed the digest.
    let key = std::sync::Arc::as_ptr(&draw.mesh);
    let mesh_fp = *meshes
        .entry(key)
        .or_insert_with(|| mesh_fingerprint(&draw.mesh));
    fp.write_u64((mesh_fp >> 64) as u64);
    fp.write_u64(mesh_fp as u64);
    for col in &draw.transform.cols {
        fp.write_f32(col.x);
        fp.write_f32(col.y);
        fp.write_f32(col.z);
        fp.write_f32(col.w);
    }
    fp.write_u32(draw.vertex_shader.0);
    fp.write_u32(draw.fragment_shader.0);
    match draw.texture {
        None => fp.write_u32(0),
        Some(t) => {
            fp.write_u32(1);
            fp.write_u32(t.id.0);
            fp.write_u32(t.width);
            fp.write_u32(t.height);
            fp.write_u32(t.bytes_per_texel);
            fp.write_u64(t.base_address);
        }
    }
    fp.write_u32(match draw.blend {
        BlendMode::Opaque => 0,
        BlendMode::AlphaBlend => 1,
        BlendMode::Additive => 2,
    });
    fp.write_u32(u32::from(draw.depth_test));
}

/// Content fingerprint of a frame: every field of every draw call that
/// the functional renderer or the timing model can observe.
pub fn frame_fingerprint(frame: &Frame) -> u128 {
    let mut fp = Fingerprint::new();
    let mut meshes = HashMap::new();
    fp.write_u64(frame.draws.len() as u64);
    for draw in &frame.draws {
        write_draw(&mut fp, draw, &mut meshes);
    }
    fp.finish()
}

/// Fingerprint of everything besides frame content that determines a
/// characterization result: the render config and the shader table.
///
/// Both types are plain data with derived `Debug`, so their full debug
/// representation is a faithful (if verbose) serialization — computed
/// once per sequence, not per frame.
pub fn activity_config_fingerprint(config: &RenderConfig, shaders: &ShaderTable) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(0x41435449); // "ACTI" domain tag
    fp.write_bytes(format!("{config:?}|{shaders:?}").as_bytes());
    fp.finish()
}

/// Fingerprint of everything besides frame content that determines a
/// timing result: the full GPU config (which embeds the render mode and
/// viewport) and the shader table.
pub fn stats_config_fingerprint(config: &GpuConfig, shaders: &ShaderTable) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64(0x53544154); // "STAT" domain tag
    fp.write_bytes(format!("{config:?}|{shaders:?}").as_bytes());
    fp.finish()
}

/// The timing-result key of a rig shape: [`stats_config_fingerprint`]
/// itself for a single GPU — every N = 1 rig, whatever its dispatch,
/// topology and link, runs the single-GPU frame with no transfer, so it
/// shares the single-GPU entries — and the rig configuration mixed in
/// for N > 1, so one rig shape's result is never returned for another.
pub fn rig_stats_config_fingerprint(
    config: &GpuConfig,
    multi: &MultiGpuConfig,
    shaders: &ShaderTable,
) -> u128 {
    let single = stats_config_fingerprint(config, shaders);
    if multi.gpus == 1 {
        return single;
    }
    let mut fp = Fingerprint::new();
    fp.write_u64(0x52494753); // "RIGS" domain tag
    fp.write_u64((single >> 64) as u64);
    fp.write_u64(single as u64);
    fp.write_bytes(format!("{multi:?}").as_bytes());
    fp.finish()
}

#[inline]
fn combine(config_fp: u128, frame_fp: u128) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_u64((config_fp >> 64) as u64);
    fp.write_u64(config_fp as u64);
    fp.write_u64((frame_fp >> 64) as u64);
    fp.write_u64(frame_fp as u64);
    fp.finish()
}

/// The shared three-tier lookup: memory, then (under single-flight)
/// disk, then compute with write-behind. See the module docs for why
/// every tier is transparent.
fn tiered_or_else<V: Clone>(
    kind: Kind,
    cache: &ConcurrentCache<V>,
    flights: &SingleFlight<V>,
    key: u128,
    decode: impl Fn(&[u8]) -> Option<V>,
    encode: impl Fn(&V) -> Vec<u8>,
    compute: impl FnOnce() -> V,
) -> V {
    if let Some(v) = cache.lookup(key) {
        count(kind, Tier::Memory);
        return v;
    }
    let (v, outcome) = flights.run(key, || {
        if let Some(store) = store() {
            if let Some(bytes) = store.get(key) {
                if let Some(v) = decode(&bytes) {
                    count(kind, Tier::Disk);
                    cache.insert(key, v.clone());
                    return v;
                }
            }
        }
        let v = compute();
        count(kind, Tier::Computed);
        cache.insert(key, v.clone());
        if let Some(store) = store() {
            store.put(key, encode(&v));
        }
        v
    });
    if outcome == FlightOutcome::Shared {
        // The leader already counted its tier and populated the memory
        // cache; this lookup only waited.
        count(kind, Tier::Shared);
    }
    v
}

/// Returns the cached [`FrameActivity`] for `(config_fp, frame)`, or
/// computes (and caches) it. With the cache disabled this is just
/// `compute()`.
pub fn activity_or_else(
    config_fp: u128,
    frame: &Frame,
    compute: impl FnOnce() -> FrameActivity,
) -> FrameActivity {
    if !is_enabled() {
        return compute();
    }
    tiered_or_else(
        Kind::Activity,
        activity_cache(),
        activity_flights(),
        combine(config_fp, frame_fingerprint(frame)),
        codec::decode_activity,
        codec::encode_activity,
        compute,
    )
}

/// Returns the cached [`FrameStats`] for `(config_fp, frame)`, or
/// computes (and caches) it. With the cache disabled this is just
/// `compute()`.
pub fn stats_or_else(
    config_fp: u128,
    frame: &Frame,
    compute: impl FnOnce() -> FrameStats,
) -> FrameStats {
    if !is_enabled() {
        return compute();
    }
    tiered_or_else(
        Kind::Stats,
        stats_cache(),
        stats_flights(),
        combine(config_fp, frame_fingerprint(frame)),
        codec::decode_stats,
        codec::encode_stats,
        compute,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use megsim_gfx::geometry::Vertex;
    use megsim_gfx::math::{Mat4, Vec3};
    use megsim_gfx::shader::ShaderId;
    use std::sync::Arc;

    fn frame_with(z: f32) -> Frame {
        let mesh = Arc::new(Mesh::new(
            vec![
                Vertex::at(Vec3::new(-0.5, -0.5, z)),
                Vertex::at(Vec3::new(0.5, -0.5, z)),
                Vertex::at(Vec3::new(0.0, 0.5, z)),
            ],
            vec![0, 1, 2],
            0x100,
        ));
        let mut f = Frame::new();
        f.draws.push(DrawCall {
            mesh,
            transform: Mat4::IDENTITY,
            vertex_shader: ShaderId(0),
            fragment_shader: ShaderId(0),
            texture: None,
            blend: BlendMode::Opaque,
            depth_test: true,
        });
        f
    }

    #[test]
    fn identical_content_hashes_identically() {
        // Distinct allocations, same content: the fingerprint must be
        // content-addressed, not identity-addressed.
        assert_eq!(
            frame_fingerprint(&frame_with(0.25)),
            frame_fingerprint(&frame_with(0.25))
        );
    }

    #[test]
    fn content_changes_change_the_hash() {
        let base = frame_fingerprint(&frame_with(0.25));
        assert_ne!(base, frame_fingerprint(&frame_with(0.26)));
        let mut f = frame_with(0.25);
        f.draws[0].depth_test = false;
        assert_ne!(base, frame_fingerprint(&f));
        let mut f = frame_with(0.25);
        f.draws[0].blend = BlendMode::Additive;
        assert_ne!(base, frame_fingerprint(&f));
        let mut f = frame_with(0.25);
        f.draws[0].transform = Mat4::translation(Vec3::new(0.1, 0.0, 0.0));
        assert_ne!(base, frame_fingerprint(&f));
    }

    #[test]
    fn empty_frame_differs_from_nonempty() {
        assert_ne!(
            frame_fingerprint(&Frame::new()),
            frame_fingerprint(&frame_with(0.5))
        );
    }

    #[test]
    fn domain_tags_separate_activity_and_stats_keys() {
        let shaders = ShaderTable::new();
        let rc = RenderConfig::default();
        let gc = GpuConfig::default();
        assert_ne!(
            activity_config_fingerprint(&rc, &shaders),
            stats_config_fingerprint(&gc, &shaders)
        );
    }

    #[test]
    fn bytes_hashing_is_length_prefixed() {
        let mut a = Fingerprint::new();
        a.write_bytes(b"ab");
        a.write_bytes(b"c");
        let mut b = Fingerprint::new();
        b.write_bytes(b"a");
        b.write_bytes(b"bc");
        assert_ne!(a.finish(), b.finish());
    }
}
