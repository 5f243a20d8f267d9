//! A client cannot grow the string interner. Every stored string is a
//! symbol in one process-wide, append-only table; a string literal in ad
//! hoc SQL is looked up there, never inserted — through a pinned epoch's
//! `query` and through the wire's `QUERY` alike. This file holds one test,
//! so no other test in its process interns while it counts.

use fgdb_core::fixtures::biased_token_pdb;
use fgdb_core::{LiveSampler, ServingConfig};
use fgdb_relational::parser::paper_sql;
use fgdb_relational::symbol::symbol_count;
use fgdb_serve::{Client, Server};

/// Fresh literals sent down each path.
const LITERALS: usize = 200;

#[test]
fn fresh_string_literals_do_not_grow_the_interner() {
    let pdb = biased_token_pdb(24, 6, 0xD1CE);
    let config = ServingConfig {
        thinning: 20,
        publish_every: 2,
        window: 64,
        ..Default::default()
    };
    let q1 = paper_sql::query1("TOKEN");
    let sampler =
        LiveSampler::spawn(pdb, &[("q1", q1.as_str())], config).expect("spawn live sampler");
    let server = Server::start(sampler.reader(), "127.0.0.1:0").expect("bind server");
    let mut client = Client::connect(server.addr().to_string()).expect("connect");
    let snapshot = sampler.reader().pin();

    // A literal the store holds binds as its symbol and selects its rows.
    let stored = "SELECT label, COUNT(*) FROM TOKEN WHERE label = 'O' GROUP BY label";
    assert!(!snapshot
        .query(stored)
        .expect("stored literal")
        .rows
        .is_empty());
    assert!(!client
        .query(stored)
        .expect("stored literal")
        .rows
        .is_empty());

    let before = symbol_count();
    for i in 0..LITERALS {
        let sql = format!(
            "SELECT string, COUNT(*) FROM TOKEN \
             WHERE label = 'fresh-{i}' OR string <> 'fresh-{i}-x' OR string < 'fresh-{i}-y' \
             GROUP BY string"
        );
        let local = snapshot.query(&sql).expect("epoch query");
        assert!(!local.rows.is_empty());
        let wire = client.query(&sql).expect("wire query");
        assert!(!wire.rows.is_empty());
    }
    assert_eq!(symbol_count(), before, "ad hoc literals grew the interner");

    server.stop();
    sampler.stop().expect("clean sampler stop");
}
