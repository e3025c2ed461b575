//! Session management — the NodeJS tier of the paper's architecture
//! (Figure 4), reduced to its essence: a thread-safe registry of
//! concurrently usable exploration sessions.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use blaeu_store::Table;

use crate::cache::AnalysisMemo;
use crate::error::{BlaeuError, Result};
use crate::explorer::{Explorer, ExplorerConfig};

/// Opaque session identifier.
pub type SessionId = u64;

/// A registry of live exploration sessions.
///
/// Sessions are independently lockable, so concurrent clients exploring
/// different sessions never contend; the registry lock is held only for
/// lookup and bookkeeping.
#[derive(Debug, Default)]
pub struct SessionManager {
    next_id: AtomicU64,
    sessions: RwLock<HashMap<SessionId, Arc<Mutex<Explorer>>>>,
}

impl SessionManager {
    /// Creates an empty manager.
    pub fn new() -> Self {
        SessionManager::default()
    }

    /// Opens a new session over `table`, returning its id.
    ///
    /// # Errors
    /// Propagates [`Explorer::open`] failures (e.g. too few columns).
    // lint: allow(view-discipline) — ownership transfer at the session boundary: the table moves into an Arc once, here
    pub fn create(&self, table: Table, config: ExplorerConfig) -> Result<SessionId> {
        self.create_shared(Arc::new(table), config)
    }

    /// Opens a new session over an already-shared table — the zero-copy
    /// path for many concurrent sessions over one big table: every session
    /// navigates its own views of the same column payloads, nothing is
    /// cloned per session.
    ///
    /// # Errors
    /// Propagates [`Explorer::open_shared`] failures (e.g. too few
    /// columns).
    pub fn create_shared(&self, table: Arc<Table>, config: ExplorerConfig) -> Result<SessionId> {
        self.register(Explorer::open_shared(table, config)?)
    }

    /// [`SessionManager::create_shared`] with an analysis memoizer: the
    /// session's theme detection and map builds go through `memo`, so
    /// sessions sharing one memoizer (the server tier's cache) share
    /// their cluster analyses.
    ///
    /// # Errors
    /// Propagates [`Explorer::open_shared_memoized`] failures.
    pub fn create_shared_memoized(
        &self,
        table: Arc<Table>,
        config: ExplorerConfig,
        memo: Arc<dyn AnalysisMemo>,
    ) -> Result<SessionId> {
        self.register(Explorer::open_shared_memoized(table, config, Some(memo))?)
    }

    fn register(&self, explorer: Explorer) -> Result<SessionId> {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.sessions
            .write()
            .insert(id, Arc::new(Mutex::new(explorer)));
        Ok(id)
    }

    /// Re-opens a session under an *explicit* id — the journal-recovery
    /// path: a restarted server re-creates each journaled session under
    /// the id its clients already hold. Ids of later
    /// [`SessionManager::create`] calls (and its variants) are bumped
    /// past `id`, so restored and fresh sessions never collide.
    ///
    /// # Errors
    /// [`BlaeuError::Invalid`] when `id` is already live or is
    /// `u64::MAX` (no id would be left to allocate after it);
    /// explorer-open failures as [`SessionManager::create_shared_memoized`].
    pub fn restore_shared_memoized(
        &self,
        id: SessionId,
        table: Arc<Table>,
        config: ExplorerConfig,
        memo: Option<Arc<dyn AnalysisMemo>>,
    ) -> Result<()> {
        // The id may come from an untrusted journal file name: the
        // allocator bump past it must not overflow.
        let next = id.checked_add(1).ok_or_else(|| {
            BlaeuError::Invalid(format!(
                "cannot restore session {id}: no id is left to allocate after it"
            ))
        })?;
        let explorer = Explorer::open_shared_memoized(table, config, memo)?;
        let mut sessions = self.sessions.write();
        if sessions.contains_key(&id) {
            return Err(BlaeuError::Invalid(format!(
                "cannot restore session {id}: the id is already live"
            )));
        }
        sessions.insert(id, Arc::new(Mutex::new(explorer)));
        self.next_id.fetch_max(next, Ordering::Relaxed);
        Ok(())
    }

    /// Runs `f` with exclusive access to the session's explorer.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownSession`] for closed or bogus ids.
    pub fn with<R>(&self, id: SessionId, f: impl FnOnce(&mut Explorer) -> R) -> Result<R> {
        let handle = self
            .sessions
            .read()
            .get(&id)
            .cloned()
            .ok_or(BlaeuError::UnknownSession(id))?;
        let mut guard = handle.lock();
        Ok(f(&mut guard))
    }

    /// Closes a session.
    ///
    /// # Errors
    /// Returns [`BlaeuError::UnknownSession`] when absent.
    pub fn close(&self, id: SessionId) -> Result<()> {
        self.sessions
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or(BlaeuError::UnknownSession(id))
    }

    /// Ids of all live sessions, ascending — callers can rely on the
    /// order (no call-site sorting needed).
    pub fn ids(&self) -> Vec<SessionId> {
        // lint: allow(digest-determinism) — hash order cannot leak: the ids are sorted on the next line before return
        let mut ids: Vec<SessionId> = self.sessions.read().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Number of live sessions.
    pub fn len(&self) -> usize {
        self.sessions.read().len()
    }

    /// True when no session is live.
    pub fn is_empty(&self) -> bool {
        self.sessions.read().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blaeu_store::generate::{oecd, OecdConfig};

    fn table() -> Table {
        oecd(&OecdConfig {
            nrows: 250,
            ncols: 24,
            missing_rate: 0.0,
            ..OecdConfig::default()
        })
        .unwrap()
        .0
    }

    #[test]
    fn create_use_close() {
        let mgr = SessionManager::new();
        assert!(mgr.is_empty());
        let id = mgr.create(table(), ExplorerConfig::default()).unwrap();
        assert_eq!(mgr.len(), 1);

        let n_themes = mgr.with(id, |ex| ex.themes().len()).unwrap();
        assert!(n_themes >= 2);

        mgr.close(id).unwrap();
        assert!(mgr.is_empty());
        assert!(matches!(
            mgr.with(id, |_| ()),
            Err(BlaeuError::UnknownSession(_))
        ));
        assert!(matches!(mgr.close(id), Err(BlaeuError::UnknownSession(_))));
    }

    #[test]
    fn sessions_are_isolated() {
        let mgr = SessionManager::new();
        let a = mgr.create(table(), ExplorerConfig::default()).unwrap();
        let b = mgr.create(table(), ExplorerConfig::default()).unwrap();
        assert_ne!(a, b);

        mgr.with(a, |ex| {
            ex.select_theme(0).unwrap();
        })
        .unwrap();

        let depth_a = mgr.with(a, |ex| ex.depth()).unwrap();
        let depth_b = mgr.with(b, |ex| ex.depth()).unwrap();
        assert_eq!(depth_a, 2);
        assert_eq!(depth_b, 1, "session b untouched");
    }

    #[test]
    fn restore_pins_id_and_bumps_allocator() {
        let mgr = SessionManager::new();
        let base = Arc::new(table());
        mgr.restore_shared_memoized(7, Arc::clone(&base), ExplorerConfig::default(), None)
            .unwrap();
        assert_eq!(mgr.ids(), vec![7]);
        // Restoring over a live id is a typed error, not an overwrite.
        assert!(matches!(
            mgr.restore_shared_memoized(7, Arc::clone(&base), ExplorerConfig::default(), None),
            Err(BlaeuError::Invalid(_))
        ));
        // Fresh sessions allocate past every restored id.
        let fresh = mgr
            .create_shared(Arc::clone(&base), ExplorerConfig::default())
            .unwrap();
        assert!(fresh > 7, "fresh id {fresh} must not collide with restored");
        // Restoring below the allocator is fine as long as the id is free.
        mgr.restore_shared_memoized(3, base, ExplorerConfig::default(), None)
            .unwrap();
        assert_eq!(mgr.ids(), vec![3, 7, fresh]);
    }

    #[test]
    fn restore_of_max_id_is_a_typed_error_not_an_overflow() {
        let mgr = SessionManager::new();
        let base = Arc::new(table());
        assert!(matches!(
            mgr.restore_shared_memoized(
                SessionId::MAX,
                Arc::clone(&base),
                ExplorerConfig::default(),
                None
            ),
            Err(BlaeuError::Invalid(_))
        ));
        // Nothing was registered and the allocator is untouched.
        assert!(mgr.is_empty());
        assert_eq!(
            mgr.create_shared(base, ExplorerConfig::default()).unwrap(),
            0
        );
    }

    #[test]
    fn ids_lists_sessions_sorted() {
        let mgr = SessionManager::new();
        let a = mgr.create(table(), ExplorerConfig::default()).unwrap();
        let b = mgr.create(table(), ExplorerConfig::default()).unwrap();
        // Ascending straight from the manager — no call-site sort.
        assert_eq!(mgr.ids(), vec![a.min(b), a.max(b)]);
    }
}
