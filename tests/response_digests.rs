//! Pinned digests of every response that carries a shared map or theme
//! set — `themes`, `select_theme 0`, a zoom, and each rung of one
//! `map_progressive` ladder (the envelope and its `map_digest`) — over
//! the small Countries & Work table, with and without NULLs.
//!
//! `Response::digest` values are persisted in session journals and
//! checked on recovery, so the digest of a map may get cheaper but never
//! change. The constants below were captured before map and theme
//! digests were memoised; every digest is also checked, twice, against
//! an FNV-1a oracle over the response's full `Debug` text, and a cache
//! hit through the session server must digest like the miss.

use std::sync::Arc;

use blaeu::prelude::*;
use blaeu_bench::{oecd_small, oecd_small_nulls};

const DENSE: [(&str, u64); 11] = [
    ("themes", 0x4109bf8391ffb21c),
    ("select_theme", 0xa0dc7c1a7a71f184),
    ("zoom", 0xdaafbb2b1199fb3b),
    ("ladder/0", 0x056a276fe20e4f29),
    ("ladder/0/map_digest", 0x185e637f346a0553),
    ("ladder/1", 0x693214570276ad85),
    ("ladder/1/map_digest", 0xaaa4811705e87fc3),
    ("ladder/2", 0x113f2d6ed7ad4205),
    ("ladder/2/map_digest", 0x9d8609bc58d78a71),
    ("ladder/3", 0x3df62d8e21b3a5a1),
    ("ladder/3/map_digest", 0xa0dc7c1a7a71f184),
];

const NULLS: [(&str, u64); 11] = [
    ("themes", 0x32834428fe9d7d75),
    ("select_theme", 0xea45738b1fd62c4e),
    ("zoom", 0x35ff307adb05d37d),
    ("ladder/0", 0x7f2a58dd81093a9e),
    ("ladder/0/map_digest", 0x183acacf5b488f69),
    ("ladder/1", 0x3d4c52513fec334a),
    ("ladder/1/map_digest", 0x147bf0f1fdad2dfa),
    ("ladder/2", 0x1943d5dbb0ccf588),
    ("ladder/2/map_digest", 0x4b50f4dbfe508dd7),
    ("ladder/3", 0xdf577b8192f87082),
    ("ladder/3/map_digest", 0xea45738b1fd62c4e),
];

/// FNV-1a over the response's `Debug` text, materialised: the
/// definition `Response::digest` must keep, however it computes it.
fn oracle(response: &Response) -> u64 {
    format!("{response:?}")
        .bytes()
        .fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The response's digest, checked against the oracle on a first and a
/// second call (the second may answer from a memo).
fn checked(response: &Response) -> u64 {
    let first = response.digest();
    assert_eq!(first, oracle(response), "first digest");
    assert_eq!(response.digest(), first, "second digest");
    first
}

/// Labelled digests of `themes`, `select_theme 0`, a zoom into the
/// largest leaf and every rung of a progressive ladder over the map.
fn response_digests(table: Table) -> Vec<(String, u64)> {
    let mut ex = Explorer::open(table, ExplorerConfig::default()).unwrap();
    let mut out = Vec::new();
    let themes = ex.execute(&Command::Themes).unwrap();
    out.push(("themes".to_owned(), checked(&themes)));
    let mapped = ex.execute(&Command::SelectTheme(0)).unwrap();
    let map_digest = checked(&mapped);
    out.push(("select_theme".to_owned(), map_digest));
    let biggest = ex
        .map()
        .unwrap()
        .leaves()
        .iter()
        .max_by_key(|r| r.count)
        .map(|r| r.id)
        .unwrap();
    let zoomed = ex.execute(&Command::Zoom(biggest)).unwrap();
    out.push(("zoom".to_owned(), checked(&zoomed)));
    ex.execute(&Command::Rollback).unwrap();

    let mut response = ex.execute(&Command::MapProgressive).unwrap();
    loop {
        let Response::MapDelta { map, delta } = &response else {
            panic!("expected a delta, got {response:?}");
        };
        let level = delta.level;
        out.push((format!("ladder/{level}"), checked(&response)));
        assert_eq!(
            delta.map_digest,
            checked(&Response::Map(Arc::clone(map))),
            "rung {level}'s map_digest"
        );
        out.push((format!("ladder/{level}/map_digest"), delta.map_digest));
        if delta.final_level {
            assert_eq!(delta.map_digest, map_digest, "the last rung is exact");
            break;
        }
        response = ex
            .execute(&Command::MapRefine { level: level + 1 })
            .unwrap();
    }
    out
}

fn check(got: Vec<(String, u64)>, pinned: &[(&str, u64)]) {
    let got: Vec<(&str, u64)> = got.iter().map(|(l, d)| (l.as_str(), *d)).collect();
    assert_eq!(got, pinned);
}

#[test]
fn dense_table_responses_are_pinned() {
    check(response_digests(oecd_small().0), &DENSE);
}

#[test]
fn null_table_responses_are_pinned() {
    check(response_digests(oecd_small_nulls()), &NULLS);
}

/// Two sessions on one seed through a caching server: the second
/// session's `themes` and `select_theme 0` are hits, and must digest
/// like the first session's misses, like the oracle, and like the pins.
#[test]
fn cache_hits_digest_like_misses() {
    let srv = AsyncSessionServer::new(ServerConfig {
        threads: 2,
        queue_capacity: 8,
        cache_capacity: 8,
        ..ServerConfig::default()
    });
    let table = Arc::new(oecd_small().0);
    let mut digests = Vec::new();
    let mut maps = Vec::new();
    for _ in 0..2 {
        let id = srv
            .open_session(Arc::clone(&table), ExplorerConfig::default())
            .unwrap();
        let themes = srv.request(id, Command::Themes).unwrap();
        let map = srv.request(id, Command::SelectTheme(0)).unwrap();
        digests.push([checked(&themes), checked(&map)]);
        let Response::Map(map) = map else {
            panic!("expected a map, got {map:?}");
        };
        maps.push(map);
    }
    assert_eq!(digests[0], digests[1], "hit vs miss");
    assert!(srv.cache_stats().expect("cache is on").hits >= 1);
    assert!(
        Arc::ptr_eq(&maps[0], &maps[1]),
        "a hit shares the miss's map"
    );
    let pinned = |label: &str| DENSE.iter().find(|(l, _)| *l == label).map(|(_, d)| *d);
    assert_eq!(
        [Some(digests[0][0]), Some(digests[0][1])],
        [pinned("themes"), pinned("select_theme")]
    );
}
