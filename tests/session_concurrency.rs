//! Stress tests for the session registry: interleaved lifecycles,
//! rollback under concurrency, closed-session rejection. Concurrent
//! exploration through the serving tier is covered by
//! `tests/async_server.rs`.

use std::sync::Arc;

use blaeu::prelude::*;

fn table() -> Table {
    hollywood(&HollywoodConfig {
        nrows: 400,
        ..HollywoodConfig::default()
    })
    .unwrap()
    .0
}

#[test]
fn create_and_close_interleaved_with_use() {
    let manager = Arc::new(SessionManager::new());
    let base = table();

    std::thread::scope(|scope| {
        // Churner thread: creates and closes sessions.
        {
            let manager = Arc::clone(&manager);
            let base = base.clone();
            scope.spawn(move || {
                for _ in 0..5 {
                    let id = manager
                        .create(base.clone(), ExplorerConfig::default())
                        .unwrap();
                    manager.close(id).unwrap();
                }
            });
        }
        // Worker thread: uses its own stable session throughout.
        {
            let manager = Arc::clone(&manager);
            let base = base.clone();
            scope.spawn(move || {
                let id = manager
                    .create(base.clone(), ExplorerConfig::default())
                    .unwrap();
                for _ in 0..3 {
                    manager
                        .with(id, |ex| {
                            ex.select_theme(0).unwrap();
                            ex.rollback().unwrap();
                        })
                        .unwrap();
                }
                manager.close(id).unwrap();
            });
        }
    });
    assert!(manager.is_empty());
}

#[test]
fn closed_session_rejected_cleanly() {
    let manager = SessionManager::new();
    let id = manager.create(table(), ExplorerConfig::default()).unwrap();
    manager.close(id).unwrap();
    let err = manager.with(id, |_| ()).unwrap_err();
    assert!(matches!(err, BlaeuError::UnknownSession(_)));
}

#[test]
fn session_state_survives_between_calls() {
    let manager = SessionManager::new();
    let id = manager.create(table(), ExplorerConfig::default()).unwrap();

    manager
        .with(id, |ex| {
            ex.select_theme(0).unwrap();
        })
        .unwrap();
    // A later call sees the selected theme's map.
    let (depth, has_map) = manager
        .with(id, |ex| (ex.depth(), ex.map().is_ok()))
        .unwrap();
    assert_eq!(depth, 2);
    assert!(has_map);
}
