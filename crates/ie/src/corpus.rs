//! Synthetic news corpus — the NYT-2004 substitute.
//!
//! §5.1 of the paper evaluates on ten million tokens from 1788 New York
//! Times articles, truth-labelled by an external NER system. That corpus is
//! proprietary, so we generate a synthetic equivalent that preserves every
//! property the experiments exercise:
//!
//! * **scale** — any token count, streamed into the TOKEN relation
//!   `(TOK_ID, DOC_ID, STRING, LABEL, TRUTH)` with LABEL initialized to "O",
//!   exactly as in the paper;
//! * **document structure** — tokens grouped into documents, the unit of
//!   the locality proposer and of Query 3/4 grouping;
//! * **string repetition** — entity mentions repeat within a document
//!   ("a spokesman for IBM … said that IBM …", Fig. 3), which is what gives
//!   the skip-chain CRF its skip edges; common words follow a Zipfian law;
//! * **label ambiguity** — some strings legitimately occur under multiple
//!   entity types ("Boston" the city vs. "Boston" the team, §9.1 / Query 4),
//!   so posterior marginals are genuinely uncertain;
//! * **ground truth** — a generative BIO labelling stored in TRUTH, playing
//!   the role of the paper's Stanford-NER reference labels.

use crate::bio::{EntityType, Label};
use fgdb_relational::{Database, RawHeap, Relation, Schema, Value, ValueType};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::sync::Arc;

/// Configuration of the corpus generator.
#[derive(Clone, Debug)]
pub struct CorpusConfig {
    /// Number of documents.
    pub num_docs: usize,
    /// Mean tokens per document (lengths vary ±50%).
    pub mean_doc_len: usize,
    /// Distinct non-entity (lowercase) vocabulary size.
    pub common_vocab: usize,
    /// Distinct entity strings per type.
    pub entities_per_type: usize,
    /// Probability that an entity mention starts at a given position.
    pub entity_rate: f64,
    /// Probability that a new mention within a document re-uses an entity
    /// string already mentioned there (drives skip-edge density).
    pub repeat_rate: f64,
    /// Probability that a mention is preceded by a type-revealing cue word
    /// ("spokesman for IBM…"). Cues are what make skip edges valuable: one
    /// cued occurrence disambiguates, and the skip factor propagates the
    /// label to cue-less occurrences of the same string (Fig. 3).
    pub cue_rate: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_docs: 20,
            mean_doc_len: 100,
            common_vocab: 500,
            entities_per_type: 40,
            entity_rate: 0.12,
            repeat_rate: 0.4,
            cue_rate: 0.3,
            seed: 0xC0FFEE,
        }
    }
}

impl CorpusConfig {
    /// Scales the document count so the corpus holds ≈ `n` tokens (the
    /// x-axis of Fig. 4a).
    pub fn with_total_tokens(n: usize) -> Self {
        let mut c = CorpusConfig::default();
        c.mean_doc_len = 200;
        c.num_docs = (n / c.mean_doc_len).max(1);
        c
    }
}

/// One token of the corpus.
#[derive(Clone, Debug)]
pub struct Token {
    /// Shared text.
    pub string: Arc<str>,
    /// Dense vocabulary id of the text.
    pub string_id: u32,
    /// Ground-truth BIO label.
    pub truth: Label,
    /// True when the string participates in skip edges (capitalized entity
    /// strings, per the usual skip-chain construction).
    pub skip_eligible: bool,
}

/// A generated corpus.
pub struct Corpus {
    /// All tokens, document-major.
    pub tokens: Vec<Token>,
    /// Token-index range of each document.
    pub documents: Vec<Range<usize>>,
    vocab: Vec<Arc<str>>,
}

/// Strings deliberately ambiguous between ORG and LOC — "Boston" reproduces
/// the paper's Query 4 scenario (organizations named after cities).
const AMBIGUOUS: &[&str] = &["Boston", "Chicago", "Dallas", "Houston"];

/// A few concrete person strings, echoing Fig. 8's answer set.
const PERSON_SEEDS: &[&str] = &[
    "Bill", "Ann", "Manny", "Theo", "Ramirez", "Beltran", "Jason",
];

/// Type-revealing cue words emitted (with probability `cue_rate`) just
/// before a mention: "Mr Smith", "spokesman for IBM", "in Boston",
/// "the annual Marathon".
const CUES: [&str; 4] = ["cueMr", "cueSpokesman", "cueIn", "cueAnnual"];

struct Lexicons {
    common: Vec<Arc<str>>,
    /// Per entity type: candidate mention strings (each 1–3 tokens).
    entities: [Vec<Vec<Arc<str>>>; 4],
    /// Per entity type: the cue word preceding mentions of that type.
    cues: [Arc<str>; 4],
}

fn build_lexicons(cfg: &CorpusConfig) -> (Lexicons, Vec<Arc<str>>) {
    let mut vocab: Vec<Arc<str>> = Vec::new();
    let intern = |s: String, vocab: &mut Vec<Arc<str>>| -> Arc<str> {
        let arc: Arc<str> = Arc::from(s);
        vocab.push(Arc::clone(&arc));
        arc
    };

    let common: Vec<Arc<str>> = (0..cfg.common_vocab.max(1))
        .map(|i| intern(format!("w{i}"), &mut vocab))
        .collect();

    let mut entities: [Vec<Vec<Arc<str>>>; 4] = Default::default();
    let per = cfg.entities_per_type.max(1);
    for (ti, ty) in EntityType::ALL.iter().enumerate() {
        let mut pool = Vec::with_capacity(per);
        // Seed with fixed strings so the paper's literal queries ("Boston",
        // person names) have referents at any scale.
        match ty {
            EntityType::Per => {
                for s in PERSON_SEEDS.iter().take(per) {
                    pool.push(vec![intern((*s).to_string(), &mut vocab)]);
                }
            }
            EntityType::Org | EntityType::Loc => {
                for s in AMBIGUOUS.iter().take(per) {
                    pool.push(vec![intern((*s).to_string(), &mut vocab)]);
                }
            }
            EntityType::Misc => {}
        }
        let prefix = match ty {
            EntityType::Per => "Person",
            EntityType::Org => "Org",
            EntityType::Loc => "City",
            EntityType::Misc => "Event",
        };
        let mut i = 0;
        while pool.len() < per {
            // Multi-token mentions every third entity so BIO I- labels occur.
            let len = 1 + (i % 3 == 2) as usize;
            let mut words = vec![intern(format!("{prefix}{i}"), &mut vocab)];
            if len == 2 {
                words.push(intern(format!("{prefix}{i}b"), &mut vocab));
            }
            pool.push(words);
            i += 1;
        }
        entities[ti] = pool;
    }

    let cues = [
        intern(CUES[0].to_string(), &mut vocab),
        intern(CUES[1].to_string(), &mut vocab),
        intern(CUES[2].to_string(), &mut vocab),
        intern(CUES[3].to_string(), &mut vocab),
    ];

    // Deduplicate vocab ids later via the id map; ambiguous strings were
    // interned twice (once per type) — collapse duplicates.
    let mut seen: std::collections::HashMap<Arc<str>, ()> = Default::default();
    vocab.retain(|s| seen.insert(Arc::clone(s), ()).is_none());

    (
        Lexicons {
            common,
            entities,
            cues,
        },
        vocab,
    )
}

impl Corpus {
    /// Generates a corpus deterministically from the configuration.
    pub fn generate(cfg: &CorpusConfig) -> Corpus {
        let (lex, vocab) = build_lexicons(cfg);
        let id_of: std::collections::HashMap<&str, u32> = vocab
            .iter()
            .enumerate()
            .map(|(i, s)| (&**s, i as u32))
            .collect();

        let mut rng = StdRng::seed_from_u64(cfg.seed);
        // Zipf cumulative weights (1/(r+1)) for a pool of the given size.
        let zipf = |n: usize| -> Vec<f64> {
            let mut acc = 0.0;
            (0..n)
                .map(|r| {
                    acc += 1.0 / (r + 1) as f64;
                    acc
                })
                .collect()
        };
        let draw = |cum: &[f64], rng: &mut StdRng| -> usize {
            let u = rng.gen::<f64>() * cum.last().copied().unwrap_or(1.0);
            cum.partition_point(|&c| c < u).min(cum.len() - 1)
        };
        let zipf_cum = zipf(lex.common.len());
        // Entity popularity is Zipfian too: a few entities ("Boston", the
        // star players of Fig. 8) dominate the news.
        let entity_cum: [Vec<f64>; 4] = [
            zipf(lex.entities[0].len()),
            zipf(lex.entities[1].len()),
            zipf(lex.entities[2].len()),
            zipf(lex.entities[3].len()),
        ];

        let mut tokens = Vec::new();
        let mut documents = Vec::with_capacity(cfg.num_docs);

        for _ in 0..cfg.num_docs {
            let start = tokens.len();
            let len = {
                let lo = cfg.mean_doc_len / 2;
                let hi = cfg.mean_doc_len + cfg.mean_doc_len / 2;
                rng.gen_range(lo.max(1)..=hi.max(1))
            };
            // Entities already mentioned in this document, for repetition,
            // plus the sense each surface string took — "one sense per
            // discourse": an ambiguous string ("Boston") keeps whichever
            // type its first in-document mention used, which is the
            // regularity skip-chain factors exploit (Fig. 3).
            let mut mentioned: Vec<(EntityType, usize)> = Vec::new();
            let mut sense_of: std::collections::HashMap<u32, (EntityType, usize)> =
                Default::default();
            let mut pos = 0;
            while pos < len {
                if rng.gen::<f64>() < cfg.entity_rate {
                    // Start a mention: repeat an earlier entity or draw fresh.
                    let (ty, ei) = if !mentioned.is_empty() && rng.gen::<f64>() < cfg.repeat_rate {
                        mentioned[rng.gen_range(0..mentioned.len())]
                    } else {
                        let ty = EntityType::ALL[rng.gen_range(0..EntityType::ALL.len())];
                        let ei = draw(&entity_cum[ty as usize], &mut rng);
                        let head = id_of[&*lex.entities[ty as usize][ei][0]];
                        // Defer to the document's established sense, if any.
                        *sense_of.get(&head).unwrap_or(&(ty, ei))
                    };
                    let head = id_of[&*lex.entities[ty as usize][ei][0]];
                    sense_of.entry(head).or_insert((ty, ei));
                    mentioned.push((ty, ei));
                    // A type-revealing cue word sometimes precedes the
                    // mention; its truth label is O (it is ordinary text).
                    if rng.gen::<f64>() < cfg.cue_rate && pos + 1 < len {
                        let w = &lex.cues[ty as usize];
                        tokens.push(Token {
                            string: Arc::clone(w),
                            string_id: id_of[&**w],
                            truth: Label::O,
                            skip_eligible: false,
                        });
                        pos += 1;
                    }
                    let words = &lex.entities[ty as usize][ei];
                    for (k, w) in words.iter().enumerate() {
                        if pos >= len {
                            break;
                        }
                        tokens.push(Token {
                            string: Arc::clone(w),
                            string_id: id_of[&**w],
                            truth: if k == 0 { Label::B(ty) } else { Label::I(ty) },
                            skip_eligible: true,
                        });
                        pos += 1;
                    }
                } else {
                    // Common word by Zipf rank.
                    let w = &lex.common[draw(&zipf_cum, &mut rng)];
                    tokens.push(Token {
                        string: Arc::clone(w),
                        string_id: id_of[&**w],
                        truth: Label::O,
                        skip_eligible: false,
                    });
                    pos += 1;
                }
            }
            documents.push(start..tokens.len());
        }

        Corpus {
            tokens,
            documents,
            vocab,
        }
    }

    /// Total token count.
    pub fn num_tokens(&self) -> usize {
        self.tokens.len()
    }

    /// Number of documents.
    pub fn num_documents(&self) -> usize {
        self.documents.len()
    }

    /// Distinct strings.
    pub fn vocab_size(&self) -> usize {
        self.vocab.len()
    }

    /// String for a vocabulary id.
    pub fn string(&self, id: u32) -> &Arc<str> {
        &self.vocab[id as usize]
    }

    /// Document index of a token (binary search over ranges).
    pub fn doc_of(&self, token: usize) -> usize {
        self.documents.partition_point(|r| r.end <= token)
    }

    /// Materializes the paper's TOKEN relation
    /// `(tok_id, doc_id, string, label, truth)` with every LABEL initialized
    /// to "O" (§5.1) and `tok_id` as primary key.
    pub fn to_database(&self, relation: &str) -> Database {
        let mut db = Database::new();
        let schema = Schema::from_pairs(&[
            ("tok_id", ValueType::Int),
            ("doc_id", ValueType::Int),
            ("string", ValueType::Str),
            ("label", ValueType::Str),
            ("truth", ValueType::Str),
        ])
        .expect("static schema")
        .with_primary_key("tok_id")
        .expect("tok_id exists");
        // Each vocabulary string and label is interned once; a token's
        // cells copy their symbols.
        let symbol = |s: &str| Value::str(s).interned();
        let strings: Vec<Value> = self.vocab.iter().map(|s| symbol(s)).collect();
        let o = symbol("O");
        let labels: Vec<Value> = Label::ALL.iter().map(|l| symbol(l.as_str())).collect();
        // Rows go straight into the heap's columns, token `i` at `RowId(i)`
        // (documents are consecutive token ranges), as a decoder loads them.
        let mut heap = RawHeap::new(schema.arity());
        let mut row = Vec::with_capacity(schema.arity());
        for (doc_id, range) in self.documents.iter().enumerate() {
            for tok_id in range.clone() {
                let t = &self.tokens[tok_id];
                row.extend([
                    Value::Int(tok_id as i64),
                    Value::Int(doc_id as i64),
                    strings[t.string_id as usize].clone(),
                    o.clone(),
                    labels[t.truth.index()].clone(),
                ]);
                heap.push_live(&mut row).expect("rows match the schema");
            }
        }
        let rel = Relation::from_raw_heap(relation, schema, heap, Vec::new(), &[])
            .expect("tok_ids are unique");
        db.adopt_relation(rel).expect("fresh db");
        db
    }

    /// Truth labels as domain indexes, one per token (for objectives and
    /// world initialization).
    pub fn truth_indexes(&self) -> Vec<u16> {
        self.tokens.iter().map(|t| t.truth.index() as u16).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bio::is_valid_sequence;
    use fgdb_relational::algebra::paper_queries;
    use fgdb_relational::execute_simple;

    fn small() -> Corpus {
        Corpus::generate(&CorpusConfig::default())
    }

    #[test]
    fn deterministic_under_seed() {
        let a = Corpus::generate(&CorpusConfig::default());
        let b = Corpus::generate(&CorpusConfig::default());
        assert_eq!(a.num_tokens(), b.num_tokens());
        assert!(a
            .tokens
            .iter()
            .zip(&b.tokens)
            .all(|(x, y)| x.string == y.string && x.truth == y.truth));
        let c = Corpus::generate(&CorpusConfig {
            seed: 1,
            ..Default::default()
        });
        assert!(
            a.num_tokens() != c.num_tokens()
                || a.tokens
                    .iter()
                    .zip(&c.tokens)
                    .any(|(x, y)| x.string != y.string)
        );
    }

    #[test]
    fn documents_partition_tokens() {
        let c = small();
        assert_eq!(c.num_documents(), 20);
        let mut covered = 0;
        for (i, r) in c.documents.iter().enumerate() {
            assert_eq!(r.start, covered);
            covered = r.end;
            assert!(r.end > r.start, "empty document {i}");
        }
        assert_eq!(covered, c.num_tokens());
        // doc_of agrees with ranges.
        for (i, r) in c.documents.iter().enumerate() {
            assert_eq!(c.doc_of(r.start), i);
            assert_eq!(c.doc_of(r.end - 1), i);
        }
    }

    #[test]
    fn truth_sequences_are_valid_bio() {
        let c = small();
        for r in &c.documents {
            let labels: Vec<_> = c.tokens[r.clone()].iter().map(|t| t.truth).collect();
            assert!(is_valid_sequence(&labels));
        }
    }

    #[test]
    fn corpus_contains_every_entity_type_and_o() {
        let c = small();
        let mut seen = [false; 9];
        for t in &c.tokens {
            seen[t.truth.index()] = true;
        }
        assert!(seen[0], "O tokens exist");
        // B- labels of all four types occur at default scale.
        for ty in EntityType::ALL {
            assert!(seen[Label::B(ty).index()], "missing B-{}", ty.suffix());
        }
    }

    #[test]
    fn strings_repeat_within_documents() {
        let c = small();
        // At least one document must mention the same skip-eligible string
        // twice — the precondition for skip edges.
        let mut found = false;
        for r in &c.documents {
            let mut counts: std::collections::HashMap<u32, u32> = Default::default();
            for t in &c.tokens[r.clone()] {
                if !t.skip_eligible {
                    continue;
                }
                let n = counts.entry(t.string_id).or_insert(0);
                *n += 1;
                if *n >= 2 {
                    found = true;
                }
            }
        }
        assert!(found, "no repeated entity strings → no skip edges");
    }

    #[test]
    fn ambiguous_boston_occurs_as_both_org_and_loc() {
        // Needs enough text to observe both senses.
        let cfg = CorpusConfig {
            num_docs: 200,
            ..Default::default()
        };
        let c = Corpus::generate(&cfg);
        let mut senses = std::collections::HashSet::new();
        for t in &c.tokens {
            if &*t.string == "Boston" {
                senses.insert(t.truth);
            }
        }
        assert!(
            senses.contains(&Label::B(EntityType::Org))
                && senses.contains(&Label::B(EntityType::Loc)),
            "Boston senses observed: {senses:?}"
        );
    }

    #[test]
    fn with_total_tokens_hits_target_approximately() {
        let cfg = CorpusConfig::with_total_tokens(10_000);
        let c = Corpus::generate(&cfg);
        let n = c.num_tokens() as f64;
        assert!((n - 10_000.0).abs() / 10_000.0 < 0.2, "got {n}");
    }

    #[test]
    fn database_matches_paper_schema_and_initialization() {
        let c = small();
        let db = c.to_database("TOKEN");
        let rel = db.relation("TOKEN").unwrap();
        assert_eq!(rel.len(), c.num_tokens());
        assert_eq!(rel.schema().primary_key(), Some(0));
        // Every LABEL is the initial "O"; TRUTH is a valid label.
        for (_, t) in rel.iter() {
            assert_eq!(t.get(3).as_str(), Some("O"));
            assert!(Label::parse(t.get(4).as_str().unwrap()).is_some());
        }
        // Query 1 over the initial world is empty (no B-PER labels yet).
        let res = execute_simple(&paper_queries::query1("TOKEN"), &db).unwrap();
        assert!(res.rows.is_empty());
    }

    #[test]
    fn truth_indexes_align_with_tokens() {
        let c = small();
        let idx = c.truth_indexes();
        assert_eq!(idx.len(), c.num_tokens());
        for (t, &i) in c.tokens.iter().zip(&idx) {
            assert_eq!(t.truth.index(), i as usize);
        }
    }

    #[test]
    fn vocab_ids_resolve() {
        let c = small();
        for t in c.tokens.iter().take(100) {
            assert_eq!(c.string(t.string_id), &t.string);
        }
        assert!(c.vocab_size() > 0);
    }
}
