//! The multi-tenant versioned state service: a batched front-end over
//! [`PmRt`] where each tenant is an isolated namespace of named roots
//! with its own quota and commit lineage.
//!
//! Clients enqueue [`ServiceCmd`]s; [`StateService::flush_batch`]
//! applies them in submission order and publishes **one root-table swap
//! for the whole batch** — the `left-curve/grug` shape, where a block of
//! writes commits generationally. Because durability is one sealed
//! commit record, a crash anywhere in a batch is all-or-nothing for
//! *every* tenant: either the whole batch's table is reachable or none
//! of it is (the `svc::commit_batch` failpoint puts this under the
//! crash-point sweep).
//!
//! Per-tenant byte **quotas** are enforced against the live allocator
//! edges: a `Put` is charged the class-rounded heap footprint its blob
//! will occupy (Circ-Tree's bytes-written currency), projected against
//! the tenant's staged usage, and rejected with
//! [`PmError::QuotaExceeded`] *before* touching media — a tenant hitting
//! its quota can never corrupt (or even slow) a neighbour.
//!
//! Commands are the one way into a tenant: every write reaches the
//! runtime through a batch.

use std::collections::BTreeMap;

use pmoctree_nvbm::PmError;
use pmoctree_nvbm::{NvbmArena, RecKind};

use crate::data::{ByteReader, PmData};
use crate::mvcc::Snapshot;
use crate::rt::{blob_footprint, PmRt};
use crate::tenant::validate_component;

/// The unqualified registry root. Tenant data always lives under
/// `{tenant}/…` and tenant names cannot contain `/`, so this name is
/// collision-free by construction.
const REG_ROOT: &str = "svc::tenants";

/// Service configuration. Build with [`ServiceConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceConfig {
    /// Maximum number of registered tenants.
    pub max_tenants: usize,
    /// Byte quota assigned to tenants created without an explicit one.
    pub default_quota: u64,
    /// Queue length at which [`StateService::submit`] flushes on its own.
    pub batch_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig { max_tenants: 1024, default_quota: 1 << 20, batch_capacity: 256 }
    }
}

impl ServiceConfig {
    /// A validating builder (mirrors `PmConfig::builder`).
    pub fn builder() -> ServiceConfigBuilder {
        ServiceConfigBuilder { cfg: ServiceConfig::default() }
    }
}

/// Builder for [`ServiceConfig`]; `build` rejects invalid fields with
/// [`PmError::Recovery`] instead of letting a nonsensical service run.
#[derive(Debug, Clone)]
pub struct ServiceConfigBuilder {
    cfg: ServiceConfig,
}

impl ServiceConfigBuilder {
    /// Maximum number of registered tenants (≥ 1).
    pub fn max_tenants(mut self, n: usize) -> Self {
        self.cfg.max_tenants = n;
        self
    }

    /// Default per-tenant byte quota (> 0).
    pub fn default_quota(mut self, bytes: u64) -> Self {
        self.cfg.default_quota = bytes;
        self
    }

    /// Auto-flush threshold for the command queue (≥ 1).
    pub fn batch_capacity(mut self, n: usize) -> Self {
        self.cfg.batch_capacity = n;
        self
    }

    /// Validate and produce the config.
    pub fn build(self) -> Result<ServiceConfig, PmError> {
        let c = &self.cfg;
        if c.max_tenants == 0 {
            return Err(PmError::Recovery("service: max_tenants must be >= 1".into()));
        }
        if c.default_quota == 0 {
            return Err(PmError::Recovery("service: default_quota must be > 0".into()));
        }
        if c.batch_capacity == 0 {
            return Err(PmError::Recovery("service: batch_capacity must be >= 1".into()));
        }
        Ok(self.cfg)
    }
}

/// One client command, addressed to a tenant by name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceCmd {
    /// Register a tenant (optional quota; default from config).
    Create {
        /// Tenant name (validated: non-empty, no `/`, no control chars).
        tenant: String,
        /// Byte quota; `None` uses the config default.
        quota: Option<u64>,
    },
    /// Stage an opaque value under `tenant/root`.
    Put {
        /// Target tenant.
        tenant: String,
        /// Bare root name.
        root: String,
        /// Encoded payload bytes.
        bytes: Vec<u8>,
    },
    /// Advance the tenant's commit lineage (durability itself is the
    /// batch's single root swap).
    Commit {
        /// Target tenant.
        tenant: String,
    },
    /// Revert the tenant's writes staged earlier in this batch.
    Restore {
        /// Target tenant.
        tenant: String,
    },
    /// Read the current value of `tenant/root`.
    Query {
        /// Target tenant.
        tenant: String,
        /// Bare root name.
        root: String,
    },
    /// Unregister the tenant and drop all its roots.
    Destroy {
        /// Target tenant.
        tenant: String,
    },
}

impl ServiceCmd {
    /// The tenant a command addresses.
    pub fn tenant(&self) -> &str {
        match self {
            ServiceCmd::Create { tenant, .. }
            | ServiceCmd::Put { tenant, .. }
            | ServiceCmd::Commit { tenant }
            | ServiceCmd::Restore { tenant }
            | ServiceCmd::Query { tenant, .. }
            | ServiceCmd::Destroy { tenant } => tenant,
        }
    }
}

/// Per-command success reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceReply {
    /// Tenant registered.
    Created,
    /// Value staged.
    Put,
    /// Lineage advanced; carries the tenant's commit count.
    Committed {
        /// Commits this tenant has issued over its lifetime.
        lineage: u64,
    },
    /// Staged writes reverted; carries the number of roots restored.
    Restored {
        /// Roots whose staged modification was undone.
        reverted: usize,
    },
    /// Query result (`None` = no such root).
    Value(Option<Vec<u8>>),
    /// Tenant unregistered.
    Destroyed,
}

/// Per-command outcome within a batch.
pub type CmdResult = Result<ServiceReply, PmError>;

/// What one [`StateService::flush_batch`] did.
#[derive(Debug)]
pub struct BatchReport {
    /// Outcomes, aligned with submission order.
    pub replies: Vec<CmdResult>,
    /// Committed epoch after the batch.
    pub epoch: u64,
    /// Bytes written by the batch's root swap (blobs + table).
    pub bytes_written: u64,
    /// Did the batch publish a root swap?
    pub committed: bool,
}

/// Counters the Zipf service benchmark reports from.
#[derive(Debug, Default, Clone)]
pub struct ServiceStats {
    /// Batches flushed.
    pub batches: u64,
    /// Commands applied (all kinds).
    pub cmds: u64,
    /// Root-table swaps published.
    pub commits: u64,
    /// Bytes written across all swaps.
    pub bytes_written: u64,
    /// Puts rejected by quota.
    pub quota_rejections: u64,
}

impl ServiceStats {
    /// Mean bytes written per published root swap.
    pub fn bytes_per_commit(&self) -> f64 {
        if self.commits == 0 {
            0.0
        } else {
            self.bytes_written as f64 / self.commits as f64
        }
    }
}

/// Persisted per-tenant record.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TenantRec {
    name: String,
    quota: u64,
    commits: u64,
}

impl PmData for TenantRec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.name.encode(out);
        self.quota.encode(out);
        self.commits.encode(out);
    }
    fn decode(r: &mut ByteReader<'_>) -> Result<Self, PmError> {
        Ok(TenantRec { name: String::decode(r)?, quota: u64::decode(r)?, commits: u64::decode(r)? })
    }
}

/// Volatile per-tenant bookkeeping.
#[derive(Debug, Clone)]
struct TenantMeta {
    quota: u64,
    commits: u64,
}

/// The multi-tenant front-end. Owns the runtime; borrows the arena per
/// call like every other subsystem sharing the device.
pub struct StateService {
    cfg: ServiceConfig,
    rt: PmRt,
    tenants: BTreeMap<String, TenantMeta>,
    queue: Vec<ServiceCmd>,
    stats: ServiceStats,
}

impl StateService {
    /// Initialize a fresh service on a formatted arena: creates the
    /// runtime and commits an empty tenant registry.
    pub fn create(arena: &mut NvbmArena, cfg: ServiceConfig) -> Result<Self, PmError> {
        let mut rt = PmRt::create(arena)?;
        rt.stage::<Vec<TenantRec>>(arena, REG_ROOT, &Vec::new())?;
        rt.commit(arena)?;
        Ok(StateService {
            cfg,
            rt,
            tenants: BTreeMap::new(),
            queue: Vec::new(),
            stats: ServiceStats::default(),
        })
    }

    /// Reattach to a service registry committed earlier (post-crash or
    /// handover). Queued commands are volatile and start empty.
    pub fn restore(arena: &mut NvbmArena, cfg: ServiceConfig) -> Result<Self, PmError> {
        let mut rt = PmRt::restore(arena)?;
        let tenants = load_tenants(&mut rt, arena)?;
        Ok(StateService { cfg, rt, tenants, queue: Vec::new(), stats: ServiceStats::default() })
    }

    /// The service configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Counters since this instance was created/restored.
    pub fn stats(&self) -> &ServiceStats {
        &self.stats
    }

    /// Registered tenant names, sorted.
    pub fn tenants(&self) -> impl Iterator<Item = &str> {
        self.tenants.keys().map(String::as_str)
    }

    /// A tenant's byte quota, if registered.
    pub fn quota(&self, tenant: &str) -> Option<u64> {
        self.tenants.get(tenant).map(|m| m.quota)
    }

    /// A tenant's current class-rounded heap usage (staged view).
    pub fn usage(&self, tenant: &str) -> u64 {
        self.rt.prefix_usage(&format!("{tenant}/"))
    }

    /// Committed epoch of the underlying runtime.
    pub fn epoch(&self) -> u64 {
        self.rt.epoch()
    }

    /// Commands waiting for the next flush.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Enqueue a command. When the queue reaches
    /// [`ServiceConfig::batch_capacity`] the batch flushes immediately
    /// and its report is returned.
    pub fn submit(
        &mut self,
        arena: &mut NvbmArena,
        cmd: ServiceCmd,
    ) -> Result<Option<BatchReport>, PmError> {
        self.queue.push(cmd);
        if self.queue.len() >= self.cfg.batch_capacity {
            return self.flush_batch(arena).map(Some);
        }
        Ok(None)
    }

    /// Apply every queued command in submission order, then publish one
    /// root-table swap for the whole batch. Per-command failures (quota,
    /// unknown tenant, malformed names) land in the report's `replies`;
    /// only a failed swap is a batch-level error.
    ///
    /// A batch is all-or-nothing even when it fails without a crash: if
    /// the swap cannot be published (the ring is full), the flush reverts
    /// the whole staged window and reloads the tenant table from the
    /// committed registry, so the epoch, every root and every tenant are
    /// as the last published batch left them, and no later flush
    /// publishes part of this one. The error returned is the one that
    /// failed the publish.
    pub fn flush_batch(&mut self, arena: &mut NvbmArena) -> Result<BatchReport, PmError> {
        let _s = arena.span("svc::flush_batch");
        let cmds = std::mem::take(&mut self.queue);
        if cmds.is_empty() {
            return Ok(BatchReport {
                replies: Vec::new(),
                epoch: self.rt.epoch(),
                bytes_written: 0,
                committed: false,
            });
        }
        self.stats.batches += 1;
        let mut registry_dirty = false;
        let mut mutated = false;
        let mut replies = Vec::with_capacity(cmds.len());
        for cmd in cmds {
            self.stats.cmds += 1;
            let r = self.apply(arena, cmd, &mut registry_dirty);
            if matches!(
                r,
                Ok(ServiceReply::Created
                    | ServiceReply::Put
                    | ServiceReply::Committed { .. }
                    | ServiceReply::Restored { .. }
                    | ServiceReply::Destroyed)
            ) {
                mutated = true;
            }
            replies.push(r);
        }
        if !mutated {
            return Ok(BatchReport {
                replies,
                epoch: self.rt.epoch(),
                bytes_written: 0,
                committed: false,
            });
        }
        let regions = match self.publish(arena, registry_dirty, replies.len()) {
            Ok(regions) => regions,
            Err(e) => {
                self.rt.revert_staged_prefix("");
                // An unreadable committed registry empties the table
                // rather than keep this batch's edits; the caller still
                // sees the error that failed the batch.
                self.tenants = load_tenants(&mut self.rt, arena).unwrap_or_default();
                return Err(e);
            }
        };
        let bytes: u64 = regions.iter().map(|&(_, l)| u64::from(l)).sum();
        self.stats.commits += 1;
        self.stats.bytes_written += bytes;
        Ok(BatchReport { replies, epoch: self.rt.epoch(), bytes_written: bytes, committed: true })
    }

    fn apply(
        &mut self,
        arena: &mut NvbmArena,
        cmd: ServiceCmd,
        registry_dirty: &mut bool,
    ) -> CmdResult {
        match cmd {
            ServiceCmd::Create { tenant, quota } => {
                validate_component("tenant", &tenant)?;
                if self.tenants.contains_key(&tenant) {
                    return Err(PmError::Recovery(format!("tenant {tenant:?} already exists")));
                }
                if self.tenants.len() >= self.cfg.max_tenants {
                    return Err(PmError::Recovery(format!(
                        "tenant limit {} reached",
                        self.cfg.max_tenants
                    )));
                }
                let quota = quota.unwrap_or(self.cfg.default_quota);
                if quota == 0 {
                    return Err(PmError::Recovery("tenant quota must be > 0".into()));
                }
                self.tenants.insert(tenant, TenantMeta { quota, commits: 0 });
                *registry_dirty = true;
                Ok(ServiceReply::Created)
            }
            ServiceCmd::Put { tenant, root, bytes } => {
                let quota = self.tenant_meta(&tenant)?.quota;
                validate_component("root", &root)?;
                let qualified = format!("{tenant}/{root}");
                let prefix = &qualified[..=tenant.len()];
                // Charge the full record footprint the blob will occupy
                // in the ring (record header + u64 length prefix +
                // payload + checksum trailer), net of the record it
                // replaces.
                let new_fp = blob_footprint(8 + bytes.len()) as u64;
                let projected =
                    self.rt.prefix_usage(prefix) - self.rt.entry_footprint(&qualified) + new_fp;
                if projected > quota {
                    self.stats.quota_rejections += 1;
                    return Err(PmError::QuotaExceeded(format!(
                        "tenant {tenant:?}: {projected} B projected > quota {quota} B"
                    )));
                }
                self.rt.stage(arena, &qualified, &bytes)?;
                Ok(ServiceReply::Put)
            }
            ServiceCmd::Commit { tenant } => {
                let meta = self
                    .tenants
                    .get_mut(&tenant)
                    .ok_or_else(|| PmError::NotFound(format!("tenant {tenant:?}")))?;
                meta.commits += 1;
                *registry_dirty = true;
                Ok(ServiceReply::Committed { lineage: meta.commits })
            }
            ServiceCmd::Restore { tenant } => {
                self.tenant_meta(&tenant)?;
                let reverted = self.rt.revert_staged_prefix(&format!("{tenant}/"));
                Ok(ServiceReply::Restored { reverted })
            }
            ServiceCmd::Query { tenant, root } => {
                self.tenant_meta(&tenant)?;
                let v = self.rt.load::<Vec<u8>>(arena, &format!("{tenant}/{root}"))?;
                Ok(ServiceReply::Value(v))
            }
            ServiceCmd::Destroy { tenant } => {
                if self.tenants.remove(&tenant).is_none() {
                    return Err(PmError::NotFound(format!("tenant {tenant:?}")));
                }
                let names: Vec<String> =
                    self.rt.names_with_prefix(&format!("{tenant}/")).map(str::to_string).collect();
                for n in names {
                    self.rt.unregister(&n);
                }
                *registry_dirty = true;
                Ok(ServiceReply::Destroyed)
            }
        }
    }

    /// The bookkeeping of a registered tenant, or `NotFound`.
    fn tenant_meta(&self, tenant: &str) -> Result<&TenantMeta, PmError> {
        self.tenants.get(tenant).ok_or_else(|| PmError::NotFound(format!("tenant {tenant:?}")))
    }

    /// Stage the tenant registry if the batch edited it, then publish the
    /// batch's one root swap.
    fn publish(
        &mut self,
        arena: &mut NvbmArena,
        registry_dirty: bool,
        cmds: usize,
    ) -> Result<Vec<(u64, u32)>, PmError> {
        if registry_dirty {
            let recs: Vec<TenantRec> = self
                .tenants
                .iter()
                .map(|(n, m)| TenantRec { name: n.clone(), quota: m.quota, commits: m.commits })
                .collect();
            self.rt.stage(arena, REG_ROOT, &recs)?;
        }
        // Flight-recorder note *before* the commit point: a crash during
        // the swap still shows which batch was in flight.
        arena.rec_mark(RecKind::Note, "svc::flush_batch", cmds as u64);
        // Crash here = the whole batch vanishes; crash after = the whole
        // batch is durable. Nothing in between is reachable.
        arena.failpoint("svc::commit_batch");
        self.rt.commit(arena)
    }

    /// Pin an MVCC snapshot of a tenant's committed roots (bare names).
    pub fn snapshot(&self, arena: &mut NvbmArena, tenant: &str) -> Result<Snapshot, PmError> {
        self.tenant_meta(tenant)?;
        Ok(self.rt.snapshot_prefix(arena, &format!("{tenant}/")))
    }

    /// GC pass over blobs deferred for snapshot readers; returns how
    /// many were reclaimed.
    pub fn collect(&mut self, arena: &mut NvbmArena) -> usize {
        self.rt.collect(arena)
    }

    /// Audit a committed service image: restore the runtime, decode the
    /// registry and every tenant root, and reject orphan roots (a
    /// qualified name whose tenant is not registered). Returns
    /// tenant → root → payload bytes; the crash sweep compares this
    /// against the set of valid batch states.
    pub fn audit(
        arena: &mut NvbmArena,
    ) -> Result<BTreeMap<String, BTreeMap<String, Vec<u8>>>, PmError> {
        let mut rt = PmRt::restore(arena)?;
        let mut out: BTreeMap<String, BTreeMap<String, Vec<u8>>> =
            load_tenants(&mut rt, arena)?.into_keys().map(|t| (t, BTreeMap::new())).collect();
        let names: Vec<String> = rt.names().map(str::to_string).collect();
        for name in names {
            let Some((tenant, root)) = name.split_once('/') else {
                continue; // unqualified service-internal root
            };
            let bytes: Vec<u8> = rt
                .load(arena, &name)?
                .ok_or_else(|| PmError::Corrupt(format!("root {name:?} vanished mid-audit")))?;
            match out.get_mut(tenant) {
                Some(roots) => {
                    roots.insert(root.to_string(), bytes);
                }
                None => {
                    return Err(PmError::Corrupt(format!(
                        "orphan root {name:?}: tenant not in registry"
                    )));
                }
            }
        }
        Ok(out)
    }
}

/// The tenant registry as `rt`'s staged view holds it (the committed one
/// right after a restore or a revert).
fn load_tenants(
    rt: &mut PmRt,
    arena: &mut NvbmArena,
) -> Result<BTreeMap<String, TenantMeta>, PmError> {
    let recs: Vec<TenantRec> = rt
        .load(arena, REG_ROOT)?
        .ok_or_else(|| PmError::Corrupt("service: tenant registry root missing".into()))?;
    Ok(recs
        .into_iter()
        .map(|r| (r.name, TenantMeta { quota: r.quota, commits: r.commits }))
        .collect())
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::{DeviceModel, FailPlan};

    fn arena() -> NvbmArena {
        NvbmArena::new(1 << 20, DeviceModel::default())
    }

    fn svc(a: &mut NvbmArena) -> StateService {
        StateService::create(a, ServiceConfig::default()).unwrap()
    }

    #[test]
    fn builder_validates() {
        assert!(ServiceConfig::builder().build().is_ok());
        assert!(matches!(
            ServiceConfig::builder().max_tenants(0).build(),
            Err(PmError::Recovery(_))
        ));
        assert!(matches!(
            ServiceConfig::builder().default_quota(0).build(),
            Err(PmError::Recovery(_))
        ));
        assert!(matches!(
            ServiceConfig::builder().batch_capacity(0).build(),
            Err(PmError::Recovery(_))
        ));
    }

    #[test]
    fn one_swap_per_batch() {
        let mut a = arena();
        let mut s = svc(&mut a);
        for i in 0..8 {
            s.submit(&mut a, ServiceCmd::Create { tenant: format!("t{i}"), quota: None }).unwrap();
        }
        s.flush_batch(&mut a).unwrap();
        let epoch = s.epoch();
        for i in 0..8 {
            s.submit(
                &mut a,
                ServiceCmd::Put { tenant: format!("t{i}"), root: "x".into(), bytes: vec![i as u8] },
            )
            .unwrap();
        }
        s.flush_batch(&mut a).unwrap();
        assert_eq!(s.epoch(), epoch + 1, "eight tenants' writes coalesced into one swap");
    }

    #[test]
    fn snapshot_survives_batches_and_gc() {
        let mut a = arena();
        let mut s = svc(&mut a);
        s.submit(&mut a, ServiceCmd::Create { tenant: "t".into(), quota: None }).unwrap();
        s.submit(&mut a, ServiceCmd::Put { tenant: "t".into(), root: "x".into(), bytes: vec![1] })
            .unwrap();
        s.flush_batch(&mut a).unwrap();
        let snap = s.snapshot(&mut a, "t").unwrap();
        let v0 = snap.get_bytes(&mut a, "x").unwrap().unwrap();
        for i in 0..12u8 {
            s.submit(
                &mut a,
                ServiceCmd::Put { tenant: "t".into(), root: "x".into(), bytes: vec![i] },
            )
            .unwrap();
            s.flush_batch(&mut a).unwrap();
            s.collect(&mut a);
        }
        assert_eq!(snap.get_bytes(&mut a, "x").unwrap().unwrap(), v0);
        drop(snap);
        assert!(s.collect(&mut a) > 0);
    }

    #[test]
    fn auto_flush_at_batch_capacity() {
        let mut a = arena();
        let cfg = ServiceConfig::builder().batch_capacity(3).build().unwrap();
        let mut s = StateService::create(&mut a, cfg).unwrap();
        assert!(s
            .submit(&mut a, ServiceCmd::Create { tenant: "t".into(), quota: None })
            .unwrap()
            .is_none());
        assert!(s
            .submit(
                &mut a,
                ServiceCmd::Put { tenant: "t".into(), root: "x".into(), bytes: vec![1] }
            )
            .unwrap()
            .is_none());
        let rep = s
            .submit(&mut a, ServiceCmd::Commit { tenant: "t".into() })
            .unwrap()
            .expect("third submit hits capacity and flushes");
        assert_eq!(rep.replies.len(), 3);
        assert_eq!(s.queued(), 0);
    }

    #[test]
    fn commit_batch_failpoint_fires() {
        let mut a = arena();
        let mut s = svc(&mut a);
        a.set_fail_plan(FailPlan::count());
        s.submit(&mut a, ServiceCmd::Create { tenant: "t".into(), quota: None }).unwrap();
        s.flush_batch(&mut a).unwrap();
        let plan = a.take_fail_plan().expect("plan");
        assert!(plan.labels().iter().any(|(_, l)| *l == "svc::commit_batch"));
    }

    #[test]
    fn snapshot_pin_failpoint_fires() {
        let mut a = arena();
        let mut s = svc(&mut a);
        s.submit(&mut a, ServiceCmd::Create { tenant: "t".into(), quota: None }).unwrap();
        s.flush_batch(&mut a).unwrap();
        a.set_fail_plan(FailPlan::count());
        let _snap = s.snapshot(&mut a, "t").unwrap();
        let plan = a.take_fail_plan().expect("plan");
        assert!(plan.labels().iter().any(|(_, l)| *l == "svc::snapshot_pin"));
    }
}
