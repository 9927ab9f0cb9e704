//! Typed handles: the redesigned pm-rt surface.
//!
//! The original API was stringly typed — `rt.put::<T>(arena, "name", v)`
//! — and every call site threaded the runtime and the arena separately.
//! The redesign binds them once into a [`Session`], scopes it to a
//! namespace with [`TenantHandle`], and hands back typed
//! [`RootHandle<T>`]s, so the name↔type association is carried by a
//! value instead of re-asserted (or mis-asserted) at each call:
//!
//! ```
//! # use pm_rt::PmRt;
//! # use pmoctree_nvbm::{DeviceModel, NvbmArena};
//! # let mut arena = NvbmArena::new(1 << 20, DeviceModel::default());
//! let mut rt = PmRt::create(&mut arena).unwrap();
//! let mut t = rt.session(&mut arena).tenant("solver").unwrap();
//! let h = t.put("run", &42u64).unwrap();
//! t.commit().unwrap();
//! assert_eq!(t.read(&h).unwrap(), 42);
//! ```
//!
//! Tenants are prefixes in the shared root table (`{tenant}/{root}`);
//! `/` is reserved as the separator, so unqualified service-internal
//! roots (like the tenant registry) can never collide with tenant data.

use pmoctree_nvbm::NvbmArena;
use pmoctree_nvbm::PmError;

use crate::data::PmData;
use crate::mvcc::Snapshot;
use crate::rt::{PPtr, PmRt};

/// Reject empty names, the `/` separator, and control characters —
/// shared by tenant and root components so a qualified name parses
/// unambiguously.
pub(crate) fn validate_component(kind: &str, s: &str) -> Result<(), PmError> {
    if s.is_empty() {
        return Err(PmError::Recovery(format!("{kind} name must not be empty")));
    }
    if s.contains('/') {
        return Err(PmError::Recovery(format!("{kind} name {s:?} contains reserved '/'")));
    }
    if s.chars().any(char::is_control) {
        return Err(PmError::Recovery(format!("{kind} name {s:?} contains control characters")));
    }
    Ok(())
}

/// A runtime bound to its arena for a sequence of verbs. Created by
/// [`PmRt::session`]; scope it to a namespace with [`Session::tenant`].
pub struct Session<'s> {
    pub(crate) rt: &'s mut PmRt,
    pub(crate) arena: &'s mut NvbmArena,
}

impl PmRt {
    /// Bind this runtime and `arena` into a [`Session`] — the entry
    /// point of the typed-handle API.
    pub fn session<'s>(&'s mut self, arena: &'s mut NvbmArena) -> Session<'s> {
        Session { rt: self, arena }
    }
}

impl<'s> Session<'s> {
    /// Scope the session to tenant `name`'s namespace. Validates the
    /// name (non-empty, no `/`, no control characters).
    pub fn tenant(self, name: &str) -> Result<TenantHandle<'s>, PmError> {
        validate_component("tenant", name)?;
        Ok(TenantHandle { prefix: format!("{name}/"), name: name.to_string(), s: self })
    }
}

/// A tenant-scoped view of the registry: every verb addresses roots by
/// their bare name and reads/writes only inside the tenant's prefix.
pub struct TenantHandle<'s> {
    s: Session<'s>,
    name: String,
    prefix: String,
}

/// A typed, named reference to one of a tenant's roots. Carries the
/// bare root name plus the [`PPtr`] it staged or resolved to; read it
/// back through the tenant that issued it ([`TenantHandle::read`]).
pub struct RootHandle<T> {
    name: String,
    ptr: PPtr<T>,
}

impl<T> RootHandle<T> {
    /// The bare (unqualified) root name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The typed persistent pointer behind the handle.
    pub fn ptr(&self) -> PPtr<T> {
        self.ptr
    }
}

impl<'s> TenantHandle<'s> {
    /// The tenant name this handle is scoped to.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn qualified(&self, root: &str) -> Result<String, PmError> {
        validate_component("root", root)?;
        Ok(format!("{}{root}", self.prefix))
    }

    /// Stage `value` under `root` (copy-on-write; durable after the next
    /// [`TenantHandle::commit`]).
    pub fn put<T: PmData>(&mut self, root: &str, value: &T) -> Result<RootHandle<T>, PmError> {
        let q = self.qualified(root)?;
        let ptr = self.s.rt.stage(self.s.arena, &q, value)?;
        Ok(RootHandle { name: root.to_string(), ptr })
    }

    /// Read the current value of `root` (staged or committed); `Ok(None)`
    /// if the tenant has no such root.
    pub fn get<T: PmData>(&mut self, root: &str) -> Result<Option<T>, PmError> {
        let q = self.qualified(root)?;
        self.s.rt.load(self.s.arena, &q)
    }

    /// A typed handle for an existing root, if registered.
    pub fn root<T: PmData>(&self, root: &str) -> Option<RootHandle<T>> {
        let q = self.qualified(root).ok()?;
        let ptr = self.s.rt.resolve(&q)?;
        Some(RootHandle { name: root.to_string(), ptr })
    }

    /// Dereference a handle issued by this tenant.
    pub fn read<T: PmData>(&mut self, h: &RootHandle<T>) -> Result<T, PmError> {
        self.s.rt.load_ptr(self.s.arena, h.ptr)
    }

    /// Unregister `root`; returns whether it existed.
    pub fn remove(&mut self, root: &str) -> bool {
        match self.qualified(root) {
            Ok(q) => self.s.rt.unregister(&q),
            Err(_) => false,
        }
    }

    /// Commit the registry (one atomic root-table swap — tenant writes
    /// are isolated by namespace, not by table). Returns the regions
    /// written since the previous commit.
    pub fn commit(&mut self) -> Result<Vec<(u64, u32)>, PmError> {
        self.s.rt.commit(self.s.arena)
    }

    /// Undo this tenant's staged (uncommitted) writes; returns the
    /// number of roots reverted.
    pub fn revert(&mut self) -> usize {
        self.s.rt.revert_staged_prefix(&self.prefix)
    }

    /// Heap bytes currently charged to this tenant (class-rounded,
    /// staged view) — the service layer's quota currency.
    pub fn usage(&self) -> u64 {
        self.s.rt.prefix_usage(&self.prefix)
    }

    /// Bare names of this tenant's roots, sorted.
    pub fn roots(&self) -> Vec<String> {
        self.s
            .rt
            .names_with_prefix(&self.prefix)
            .map(|n| n[self.prefix.len()..].to_string())
            .collect()
    }

    /// Pin an MVCC snapshot of this tenant's *committed* roots (bare
    /// names). See [`Snapshot`].
    pub fn snapshot(&mut self) -> Snapshot {
        self.s.rt.snapshot_prefix(self.s.arena, &self.prefix)
    }

    /// Committed table epoch.
    pub fn epoch(&self) -> u64 {
        self.s.rt.epoch()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use pmoctree_nvbm::DeviceModel;

    #[test]
    fn names_are_validated() {
        let mut a = NvbmArena::new(1 << 20, DeviceModel::default());
        let mut rt = PmRt::create(&mut a).unwrap();
        assert!(matches!(rt.session(&mut a).tenant(""), Err(PmError::Recovery(_))));
        assert!(matches!(rt.session(&mut a).tenant("a/b"), Err(PmError::Recovery(_))));
        assert!(matches!(rt.session(&mut a).tenant("a\nb"), Err(PmError::Recovery(_))));
        let mut t = rt.session(&mut a).tenant("ok").unwrap();
        assert!(matches!(t.put("bad/name", &1u64), Err(PmError::Recovery(_))));
        assert!(matches!(t.put("", &1u64), Err(PmError::Recovery(_))));
        assert!(t.put("fine", &1u64).is_ok());
    }
}
