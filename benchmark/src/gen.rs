//! The request stream: every request of every phase, and the paced
//! phase's arrival schedule, drawn from `--seed` before anything is
//! timed. The program under test sees only the generated requests.

use feral_db::Datum;
use feral_net::planner::{TEMPLATES, WEIGHTS};
use feral_server::Request;
use feral_workloads::{KeyChooser, ScrambledZipfian, Uniform};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generator threads, and so connections or in-process callers: the
/// box has two cores and the generator never uses more.
pub const NPROC: usize = 2;
/// Distinct e-mail addresses a `POST User` can carry.
pub const EMAIL_SPACE: u64 = 1_000_000;
/// Preloaded row `r` gets e-mail key `offset + r·STRIDE mod EMAIL_SPACE`:
/// coprime to the space, so preloaded addresses never collide.
const EMAIL_STRIDE: u64 = 7919;
/// Key domain of the planner mix before each template folds it onto its
/// own operand domain; small enough that the Zipfian head stays hot.
const PLANNER_KEYS: u64 = 4096;
/// Filler so a user row and its frames have a realistic size.
const BIO: &str = "Feral concurrency control: application-level validations \
                   standing in for database constraints.";

/// Which requests a workload is made of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mix {
    /// `POST User` only, e-mails uniform over [`EMAIL_SPACE`].
    Signup,
    /// 90 % `GET User/<id>` with ids scrambled-Zipfian over `rows`
    /// preloaded rows, 10 % the same `POST User`.
    ReadMostly {
        /// Preloaded rows the reads address.
        rows: u64,
    },
    /// The certified planner's five templates at their 3/3/1/2/7
    /// weights, keys scrambled-Zipfian.
    Planner,
}

/// One generated request, compact enough to keep millions of.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spec {
    /// `GET User/<id>`.
    Get {
        /// Preloaded row id.
        id: i64,
    },
    /// `POST User` with the e-mail of this key.
    Post {
        /// E-mail key below [`EMAIL_SPACE`].
        email: u64,
    },
    /// A planner template instance.
    Template {
        /// Index into [`TEMPLATES`].
        template: u8,
        /// Workload key.
        key: u64,
    },
}

/// The address a key stands for.
pub fn email_of(key: u64) -> String {
    format!("u{key:07}@example.com")
}

/// Inverse of [`email_of`].
pub fn email_key(email: &str) -> Option<u64> {
    email
        .strip_prefix('u')?
        .strip_suffix("@example.com")?
        .parse()
        .ok()
}

/// E-mail key of preloaded row `row` (0-based; its id is `row + 1`).
pub fn preload_email(seed: u64, row: u64) -> u64 {
    (mix64(seed) % EMAIL_SPACE + row * EMAIL_STRIDE) % EMAIL_SPACE
}

/// The attribute values of a user, shared by preload and `POST`.
pub fn user_attrs(email: u64) -> [(&'static str, Datum); 3] {
    [
        ("email", Datum::text(email_of(email))),
        ("name", Datum::text(format!("user {email}"))),
        ("bio", Datum::text(BIO)),
    ]
}

/// Build the request a spec stands for; `seq` is the unique sequence
/// number that crosses the wire in `Request.session` and names the
/// request's spans.
pub fn request(spec: &Spec, seq: u64) -> Request {
    match *spec {
        Spec::Get { id } => Request::builder("User").session(seq).get(id),
        Spec::Post { email } => Request::builder("User")
            .session(seq)
            .attrs(&user_attrs(email))
            .create(),
        Spec::Template { template, key } => {
            Request::template(TEMPLATES[template as usize], key).with_session(seq)
        }
    }
}

/// How a phase offers its requests.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Pace {
    /// Open loop: each request is due at a scheduled instant, whatever
    /// became of the ones before it.
    Open {
        /// Aggregate arrival rate over both connections, requests/s.
        rps: f64,
    },
    /// Closed loop: each caller keeps `depth` requests in flight and
    /// sends the next when a reply arrives.
    Closed {
        /// Requests in flight per caller.
        depth: usize,
    },
}

/// One generator thread's share of a phase.
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadPlan {
    /// Sequence number of `specs[0]`; the rest follow densely.
    pub base_seq: u64,
    /// The requests, in issue order.
    pub specs: Vec<Spec>,
    /// Open loop only: when each request is due, ns after phase start.
    pub due_ns: Vec<u64>,
}

/// One phase of a run.
#[derive(Clone, Debug, PartialEq)]
pub struct Phase {
    /// `warmup`, `paced`, `saturation` or `saturation_traced`.
    pub name: &'static str,
    /// Which fresh copy of the system the phase runs against.
    pub round: usize,
    /// Open or closed loop.
    pub pace: Pace,
    /// Whether the phase's spans are recorded.
    pub traced: bool,
    /// Per-thread requests.
    pub threads: Vec<ThreadPlan>,
}

impl Phase {
    /// Requests in the phase.
    pub fn len(&self) -> usize {
        self.threads.iter().map(|t| t.specs.len()).sum()
    }
}

/// What to generate for one phase.
pub struct PhaseShape {
    /// Phase name.
    pub name: &'static str,
    /// Round the phase belongs to.
    pub round: usize,
    /// Loop discipline.
    pub pace: Pace,
    /// Record spans?
    pub traced: bool,
    /// Requests over all threads.
    pub requests: usize,
}

/// Generate every phase of a run. The same `(mix, seed, shapes)` gives
/// the same plan, byte for byte.
pub fn plan(mix: Mix, seed: u64, shapes: &[PhaseShape]) -> Vec<Phase> {
    let mut next_seq = 0u64;
    shapes
        .iter()
        .enumerate()
        .map(|(p, shape)| {
            let threads = (0..NPROC)
                .map(|t| {
                    let n = shape.requests / NPROC + usize::from(t < shape.requests % NPROC);
                    let stream = mix64(seed ^ mix64((p as u64) << 8 | t as u64));
                    let plan = ThreadPlan {
                        base_seq: next_seq,
                        specs: draw_specs(mix, n, stream),
                        due_ns: match shape.pace {
                            Pace::Open { rps } => draw_schedule(n, rps / NPROC as f64, !stream),
                            Pace::Closed { .. } => Vec::new(),
                        },
                    };
                    next_seq += n as u64;
                    plan
                })
                .collect();
            Phase {
                name: shape.name,
                round: shape.round,
                pace: shape.pace,
                traced: shape.traced,
                threads,
            }
        })
        .collect()
}

fn draw_specs(mix: Mix, n: usize, stream: u64) -> Vec<Spec> {
    let mut rng = StdRng::seed_from_u64(stream);
    let mut emails = Uniform::new(EMAIL_SPACE, mix64(stream ^ 1));
    match mix {
        Mix::Signup => (0..n)
            .map(|_| Spec::Post {
                email: emails.next_key(),
            })
            .collect(),
        Mix::ReadMostly { rows } => {
            let mut ids = ScrambledZipfian::new(rows, mix64(stream ^ 2));
            (0..n)
                .map(|_| {
                    if rng.random_range(0..10u32) == 0 {
                        Spec::Post {
                            email: emails.next_key(),
                        }
                    } else {
                        Spec::Get {
                            id: ids.next_key() as i64 + 1,
                        }
                    }
                })
                .collect()
        }
        Mix::Planner => {
            let total: u32 = WEIGHTS.iter().sum();
            let mut keys = ScrambledZipfian::new(PLANNER_KEYS, mix64(stream ^ 3));
            (0..n)
                .map(|_| {
                    let template = weighted(rng.random_range(0..total));
                    Spec::Template {
                        template: template as u8,
                        key: keys.next_key(),
                    }
                })
                .collect()
        }
    }
}

/// The template whose cumulative weight band `pick` falls in.
fn weighted(mut pick: u32) -> usize {
    for (i, w) in WEIGHTS.iter().enumerate() {
        if pick < *w {
            return i;
        }
        pick -= w;
    }
    unreachable!("pick is below the weights' total")
}

/// Cumulative exponential interarrivals at `rate` per second.
fn draw_schedule(n: usize, rate: f64, stream: u64) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(stream);
    let mean_gap_ns = 1e9 / rate;
    let mut at = 0.0f64;
    (0..n)
        .map(|_| {
            let u: f64 = rng.random::<f64>().max(1e-12);
            at += -u.ln() * mean_gap_ns;
            at as u64
        })
        .collect()
}

/// The plan as bytes: what two runs compare (through
/// [`workload_hash`]) to prove they served identical input.
pub fn serialize(phases: &[Phase]) -> Vec<u8> {
    let mut out = Vec::new();
    for phase in phases {
        out.extend_from_slice(phase.name.as_bytes());
        for t in &phase.threads {
            out.extend_from_slice(&t.base_seq.to_le_bytes());
            for spec in &t.specs {
                let (tag, a, b) = match *spec {
                    Spec::Get { id } => (0u8, id as u64, 0),
                    Spec::Post { email } => (1, email, 0),
                    Spec::Template { template, key } => (2, key, template),
                };
                out.push(tag);
                out.push(b);
                out.extend_from_slice(&a.to_le_bytes());
            }
            for due in &t.due_ns {
                out.extend_from_slice(&due.to_le_bytes());
            }
        }
    }
    out
}

/// FNV-1a of [`serialize`].
pub fn workload_hash(phases: &[Phase]) -> u64 {
    feral_trace::fnv64(&serialize(phases))
}

/// SplitMix64 finalizer: decorrelates the per-phase, per-thread streams
/// derived from one seed.
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use feral_server::Op;

    fn shapes() -> Vec<PhaseShape> {
        vec![
            PhaseShape {
                name: "paced",
                round: 0,
                pace: Pace::Open { rps: 5000.0 },
                traced: false,
                requests: 2001,
            },
            PhaseShape {
                name: "saturation",
                round: 0,
                pace: Pace::Closed { depth: 16 },
                traced: false,
                requests: 3000,
            },
        ]
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for mix in [Mix::Signup, Mix::ReadMostly { rows: 5000 }, Mix::Planner] {
            let a = plan(mix, 7, &shapes());
            let b = plan(mix, 7, &shapes());
            assert_eq!(serialize(&a), serialize(&b), "{mix:?}");
            assert_eq!(workload_hash(&a), workload_hash(&b));
            assert_ne!(workload_hash(&a), workload_hash(&plan(mix, 8, &shapes())));
        }
    }

    #[test]
    fn sequence_numbers_are_dense_and_the_schedule_is_rate_shaped() {
        let phases = plan(Mix::ReadMostly { rows: 5000 }, 3, &shapes());
        let mut expect = 0u64;
        for phase in &phases {
            for t in &phase.threads {
                assert_eq!(t.base_seq, expect);
                expect += t.specs.len() as u64;
            }
        }
        assert_eq!(expect, 5001);
        let paced = &phases[0];
        assert_eq!(paced.len(), 2001);
        for t in &paced.threads {
            assert_eq!(t.due_ns.len(), t.specs.len());
            assert!(t.due_ns.windows(2).all(|w| w[0] <= w[1]));
            // ~1000 arrivals at 2500/s per thread: 0.4 s, give or take
            let last = *t.due_ns.last().unwrap() as f64 / 1e9;
            assert!((0.3..0.5).contains(&last), "{last}");
        }
        assert!(phases[1].threads.iter().all(|t| t.due_ns.is_empty()));
    }

    #[test]
    fn read_mostly_is_nine_reads_to_one_write_inside_the_table() {
        let phases = plan(Mix::ReadMostly { rows: 5000 }, 11, &shapes());
        let specs: Vec<Spec> = phases
            .iter()
            .flat_map(|p| p.threads.iter().flat_map(|t| t.specs.iter().copied()))
            .collect();
        let posts = specs
            .iter()
            .filter(|s| matches!(s, Spec::Post { .. }))
            .count();
        let share = posts as f64 / specs.len() as f64;
        assert!((0.08..0.12).contains(&share), "{share}");
        for s in &specs {
            match *s {
                Spec::Get { id } => assert!((1..=5000).contains(&id)),
                Spec::Post { email } => assert!(email < EMAIL_SPACE),
                Spec::Template { .. } => panic!("no templates in an ORM mix"),
            }
        }
    }

    #[test]
    fn planner_mix_follows_the_weights() {
        let phases = plan(Mix::Planner, 5, &shapes());
        let mut counts = [0usize; 5];
        let mut n = 0usize;
        for t in phases.iter().flat_map(|p| &p.threads) {
            for s in &t.specs {
                let Spec::Template { template, .. } = *s else {
                    panic!("planner mix draws templates only")
                };
                counts[template as usize] += 1;
                n += 1;
            }
        }
        let total: u32 = WEIGHTS.iter().sum();
        for (c, w) in counts.iter().zip(WEIGHTS) {
            let (got, want) = (*c as f64 / n as f64, w as f64 / total as f64);
            assert!((got - want).abs() < 0.03, "{counts:?}");
        }
    }

    #[test]
    fn emails_round_trip_and_preload_never_collides() {
        assert_eq!(email_key(&email_of(42)), Some(42));
        assert_eq!(email_key("nobody@example.com"), None);
        let mut seen = std::collections::HashSet::new();
        for row in 0..50_000 {
            assert!(seen.insert(preload_email(9, row)));
        }
    }

    #[test]
    fn requests_carry_their_sequence_number() {
        let r = request(&Spec::Get { id: 9 }, 77);
        assert_eq!(r.session, 77);
        assert!(matches!(r.op, Op::Get { id: 9, .. }));
        let r = request(&Spec::Post { email: 5 }, 78);
        assert_eq!(r.session, 78);
        let Op::Create { attrs, .. } = r.op else {
            panic!("a Post spec builds a create")
        };
        assert_eq!(attrs[0].1, Datum::text("u0000005@example.com"));
        let r = request(
            &Spec::Template {
                template: 3,
                key: 12,
            },
            79,
        );
        assert_eq!(r.session, 79);
        assert!(matches!(r.op, Op::Template { key: 12, .. }));
    }
}
