//! Acceptance tests for the asynchronous session tier: overlap of slow
//! and fast commands across sessions, FIFO execution within a session,
//! cache purity (hit ≡ miss, bit for bit), and determinism of response
//! streams across pool sizes and cache on/off.

use std::sync::Arc;

use blaeu::prelude::*;

fn shared_table() -> Arc<Table> {
    Arc::new(
        hollywood(&HollywoodConfig {
            nrows: 500,
            ..HollywoodConfig::default()
        })
        .unwrap()
        .0,
    )
}

fn server_with(threads: usize, cache_capacity: usize) -> AsyncSessionServer {
    AsyncSessionServer::new(ServerConfig {
        threads,
        queue_capacity: 64,
        cache_capacity,
        ..ServerConfig::default()
    })
}

/// The acceptance stress: ≥ 8 sessions mixing slow (`Map`) and fast
/// (`Highlight`) commands. Every fast response must complete before the
/// slowest map finishes (async overlap — a synchronous batch would
/// return only once its slowest member finished), and each
/// session's responses must arrive in submission order.
#[test]
fn stress_slow_maps_overlap_fast_highlights() {
    let srv = server_with(8, 0); // cache off: every Map really recomputes
    let table = shared_table();
    let ids: Vec<u64> = (0..8)
        .map(|_| {
            srv.open_session(Arc::clone(&table), ExplorerConfig::default())
                .unwrap()
        })
        .collect();
    // Every session needs an active map before Map/Highlight make sense.
    for &id in &ids {
        let r = srv.request(id, Command::SelectTheme(0)).unwrap();
        assert!(matches!(r, Response::Map(_)));
    }

    let (slow_ids, fast_ids) = ids.split_at(4);
    // Submit the slow re-maps first so they claim workers, then the fast
    // highlights — which must overtake them.
    let slow: Vec<_> = slow_ids
        .iter()
        .map(|&id| (id, srv.submit(id, Command::Map).unwrap()))
        .collect();
    let fast: Vec<_> = fast_ids
        .iter()
        .map(|&id| {
            (
                id,
                srv.submit(id, Command::Highlight("film".into())).unwrap(),
            )
        })
        .collect();

    // Compare FULFILMENT stamps (recorded by the server when each
    // response became ready), not join-loop wall clocks — join order
    // says nothing about execution order.
    let fast_done: Vec<std::time::Instant> = fast
        .into_iter()
        .map(|(_, h)| {
            h.wait();
            let at = h.finished_at().expect("waited");
            assert!(matches!(h.join().unwrap(), Response::Highlight(_)));
            at
        })
        .collect();
    let slow_done: Vec<std::time::Instant> = slow
        .into_iter()
        .map(|(_, h)| {
            h.wait();
            let at = h.finished_at().expect("waited");
            assert!(matches!(h.join().unwrap(), Response::Map(_)));
            at
        })
        .collect();
    let slowest_map = slow_done.iter().max().unwrap();
    for (i, done) in fast_done.iter().enumerate() {
        assert!(
            done < slowest_map,
            "fast highlight {i} completed after the slowest map — no overlap"
        );
    }
    for id in ids {
        srv.close(id).unwrap();
    }
}

/// FIFO within a session, measured on the handles themselves: a chain
/// whose steps only work in order, with non-decreasing completion
/// stamps.
#[test]
fn per_session_responses_arrive_in_submission_order() {
    let srv = server_with(4, 0);
    let table = shared_table();
    let ids: Vec<u64> = (0..4)
        .map(|_| {
            srv.open_session(Arc::clone(&table), ExplorerConfig::default())
                .unwrap()
        })
        .collect();
    let pipelines: Vec<(u64, Vec<blaeu::server::ResponseHandle>)> = ids
        .iter()
        .map(|&id| {
            let handles = vec![
                srv.submit(id, Command::SelectTheme(0)).unwrap(),
                srv.submit(id, Command::Zoom(0)).unwrap(),
                srv.submit(id, Command::Highlight("film".into())).unwrap(),
                srv.submit(id, Command::Rollback).unwrap(),
                srv.submit(id, Command::Depth).unwrap(),
            ];
            (id, handles)
        })
        .collect();
    for (id, handles) in pipelines {
        // Fulfilment stamps (recorded by the server, not by this join
        // loop) must be non-decreasing in submission order.
        let mut last = None;
        let results: Vec<Response> = handles
            .into_iter()
            .map(|h| {
                h.wait();
                let at = h.finished_at().expect("waited");
                let r = h.join().unwrap_or_else(|e| panic!("session {id}: {e}"));
                if let Some(prev) = last {
                    assert!(at >= prev, "session {id} responses out of order");
                }
                last = Some(at);
                r
            })
            .collect();
        assert!(matches!(results[0], Response::Map(_)));
        assert!(
            matches!(results[1], Response::Map(_)),
            "zoom can only succeed after its session's select_theme"
        );
        assert!(matches!(results[2], Response::Highlight(_)));
        assert!(matches!(results[3], Response::Depth(2)));
        assert!(matches!(results[4], Response::Depth(2)));
    }
}

/// One exploration script, as digests of its response stream.
fn run_script(srv: &AsyncSessionServer, table: &Arc<Table>) -> Vec<u64> {
    let id = srv
        .open_session(Arc::clone(table), ExplorerConfig::default())
        .unwrap();
    let script = vec![
        Command::Themes,
        Command::SelectTheme(0),
        Command::Highlight("film".into()),
        Command::Zoom(0),
        Command::Map, // re-map of the same state: the canonical cache hit
        Command::Sql,
        Command::RegionDetail {
            region: 0,
            sample_rows: 5,
        },
        Command::Rollback,
        Command::Depth,
    ];
    let handles: Vec<_> = script
        .into_iter()
        .map(|cmd| srv.submit(id, cmd).unwrap())
        .collect();
    let digests = handles
        .into_iter()
        .map(|h| h.join().unwrap().digest())
        .collect();
    srv.close(id).unwrap();
    digests
}

/// The cache must be a pure win: the response stream with caching on is
/// bit-identical to the stream with caching off, and a cached re-query
/// returns bit-identical payloads while actually hitting.
#[test]
fn cache_hits_are_bit_identical_to_misses() {
    let table = shared_table();
    let uncached = server_with(2, 0);
    let cached = server_with(2, 64);

    let cold = run_script(&uncached, &table);
    let warmup = run_script(&cached, &table); // populates the cache
    let warm = run_script(&cached, &table); // replays against the cache

    assert_eq!(cold, warmup, "caching changed results (miss path)");
    assert_eq!(cold, warm, "caching changed results (hit path)");

    let stats = cached.cache_stats().unwrap();
    assert!(
        stats.hits >= 4,
        "the warm replay should hit (themes + select + zoom re-map): {stats:?}"
    );
    assert!(stats.misses >= 1);
}

/// Per-session response streams must be bit-identical whatever the pool
/// size — 1 worker or 8, the stream is a pure function of the command
/// history (the CI determinism job additionally runs this whole suite at
/// `BLAEU_THREADS` 1 and 8).
#[test]
fn response_streams_identical_across_pool_sizes() {
    let table = shared_table();
    let narrow = run_script(&server_with(1, 0), &table);
    let wide = run_script(&server_with(8, 0), &table);
    assert_eq!(narrow, wide);
}

/// Closing sessions while their queues still hold commands must resolve
/// every outstanding handle (Ok for commands that won the race,
/// UnknownSession for the rest) — never hang, never strand a handle.
#[test]
fn concurrent_close_resolves_every_pending_handle() {
    let srv = server_with(2, 0);
    let table = shared_table();
    let ids: Vec<u64> = (0..8)
        .map(|_| {
            srv.open_session(Arc::clone(&table), ExplorerConfig::default())
                .unwrap()
        })
        .collect();
    // Queue a slow command plus fast followers on every session, then
    // close them all while the pool is still chewing.
    let handles: Vec<_> = ids
        .iter()
        .flat_map(|&id| {
            vec![
                (id, srv.submit(id, Command::SelectTheme(0)).unwrap()),
                (id, srv.submit(id, Command::Depth).unwrap()),
                (id, srv.submit(id, Command::Sql).unwrap()),
            ]
        })
        .collect();
    for &id in &ids {
        srv.close(id).unwrap();
    }
    for (id, handle) in handles {
        match handle.join() {
            Ok(_) => {}
            Err(BlaeuError::UnknownSession(s)) => assert_eq!(s, id),
            Err(other) => panic!("unexpected error for session {id}: {other}"),
        }
    }
    assert!(srv.is_empty());
    // Closed sessions reject new work.
    for id in ids {
        assert!(matches!(
            srv.submit(id, Command::Depth),
            Err(BlaeuError::UnknownSession(_))
        ));
    }
}
