//! A minimal property-test harness: generate random inputs from a
//! deterministic generator, run a property, and shrink any
//! counterexample before reporting it.
//!
//! The in-tree replacement for `proptest`, sized to what the workspace's
//! property tests actually use: ranged scalars, vectors, choices, maps
//! and tuples. Failures print the shrunken input plus the seed; set
//! `NOMC_CHECK_SEED` to replay a run and `NOMC_CHECK_CASES` to change
//! the case count globally.
//!
//! # Examples
//!
//! ```
//! use nomc_rngcore::check::{forall, range};
//!
//! forall("addition_commutes", 64, &range(-1e6..1e6), |&v| {
//!     nomc_rngcore::check!(v + 1.0 == 1.0 + v, "failed for {v}");
//!     Ok(())
//! });
//! ```

use crate::{rngs::StdRng, Rng, SampleUniform, SeedableRng};
use std::fmt::Debug;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A boxed shrink proposer: maps a failing value to simpler candidates.
type Shrinker<T> = Box<dyn Fn(&T) -> Vec<T>>;

/// A generator: draws values and proposes shrink candidates.
pub struct G<T> {
    gen: Box<dyn Fn(&mut StdRng) -> T>,
    shrink: Shrinker<T>,
}

impl<T: 'static> G<T> {
    /// Creates a generator with no shrinking.
    pub fn new(gen: impl Fn(&mut StdRng) -> T + 'static) -> Self {
        G {
            gen: Box::new(gen),
            shrink: Box::new(|_| Vec::new()),
        }
    }

    /// Creates a generator with an explicit shrinker.
    pub fn with_shrink(
        gen: impl Fn(&mut StdRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        G {
            gen: Box::new(gen),
            shrink: Box::new(shrink),
        }
    }

    /// Maps generated values through `f` (shrinking does not survive the
    /// mapping — candidate inputs cannot be pulled back through `f`).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> G<U> {
        let gen = self.gen;
        G::new(move |rng| f(gen(rng)))
    }
}

impl<T> G<T> {
    /// Draws one value.
    pub fn sample(&self, rng: &mut StdRng) -> T {
        (self.gen)(rng)
    }
}

/// Uniform values from a half-open range, shrinking toward its start.
pub fn range<T: SampleUniform + Debug + 'static>(r: Range<T>) -> G<T> {
    let (lo, hi) = (r.start, r.end);
    G::with_shrink(
        move |rng| rng.gen_range(lo..hi),
        move |v| T::shrink_toward(lo, *v),
    )
}

/// Uniform values from an inclusive range, shrinking toward its start.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn range_incl<T: SampleUniform + Debug + 'static>(r: std::ops::RangeInclusive<T>) -> G<T> {
    let (lo, hi) = r.into_inner();
    G::with_shrink(
        move |rng| rng.gen_range(lo..=hi),
        move |v| T::shrink_toward(lo, *v),
    )
}

/// Always the same value (the `Just` of proptest).
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn just<T: Clone + 'static>(value: T) -> G<T> {
    G::new(move |_| value.clone())
}

/// Uniform booleans, shrinking toward `false`.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn boolean() -> G<bool> {
    G::with_shrink(
        |rng| rng.gen::<bool>(),
        |&v| if v { vec![false] } else { Vec::new() },
    )
}

/// Vectors of `elem` with a length drawn from `len`; shrinks by
/// dropping elements (never below `len.start`) and by shrinking single
/// elements.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn vec_of<T: Clone + 'static>(elem: G<T>, len: Range<usize>) -> G<Vec<T>> {
    let min_len = len.start;
    let elem = std::rc::Rc::new(elem);
    let gen_elem = elem.clone();
    G::with_shrink(
        move |rng| {
            let n = rng.gen_range(len.clone());
            (0..n).map(|_| gen_elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out = Vec::new();
            // Structural shrinks: halve, drop one element.
            if v.len() / 2 >= min_len && v.len() > 1 {
                out.push(v[..v.len() / 2].to_vec());
            }
            if v.len() > min_len {
                out.push(v[..v.len() - 1].to_vec());
                out.push(v[1..].to_vec());
            }
            // Element-wise shrinks, one position at a time.
            for (i, item) in v.iter().enumerate() {
                for cand in (elem.shrink)(item) {
                    let mut copy = v.clone();
                    copy[i] = cand;
                    out.push(copy);
                }
            }
            out
        },
    )
}

/// Picks one of the given generators uniformly per case (the
/// `prop_oneof!` of proptest). Values do not shrink across branches.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn one_of<T: 'static>(options: Vec<G<T>>) -> G<T> {
    assert!(!options.is_empty(), "one_of needs at least one generator");
    G::new(move |rng| {
        let i = rng.gen_range(0..options.len());
        options[i].sample(rng)
    })
}

/// Pairs two generators; shrinks each side independently.
pub fn zip2<A: Clone + 'static, B: Clone + 'static>(a: G<A>, b: G<B>) -> G<(A, B)> {
    let (ga, sa) = (a.gen, a.shrink);
    let (gb, sb) = (b.gen, b.shrink);
    G {
        gen: Box::new(move |rng| (ga(rng), gb(rng))),
        shrink: Box::new(move |(va, vb): &(A, B)| {
            let mut out = Vec::new();
            for ca in sa(va) {
                out.push((ca, vb.clone()));
            }
            for cb in sb(vb) {
                out.push((va.clone(), cb));
            }
            out
        }),
    }
}

/// Triples three generators; shrinks each component independently.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn zip3<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static>(
    a: G<A>,
    b: G<B>,
    c: G<C>,
) -> G<(A, B, C)> {
    let ab_c = zip2(zip2(a, b), c);
    G {
        gen: Box::new({
            let gen = ab_c.gen;
            move |rng| {
                let ((va, vb), vc) = gen(rng);
                (va, vb, vc)
            }
        }),
        shrink: Box::new(move |(va, vb, vc): &(A, B, C)| {
            (ab_c.shrink)(&((va.clone(), vb.clone()), vc.clone()))
                .into_iter()
                .map(|((a2, b2), c2)| (a2, b2, c2))
                .collect()
        }),
    }
}

/// Quadruples four generators; shrinks each component independently.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn zip4<A: Clone + 'static, B: Clone + 'static, C: Clone + 'static, D: Clone + 'static>(
    a: G<A>,
    b: G<B>,
    c: G<C>,
    d: G<D>,
) -> G<(A, B, C, D)> {
    let ab_cd = zip2(zip2(a, b), zip2(c, d));
    G {
        gen: Box::new({
            let gen = ab_cd.gen;
            move |rng| {
                let ((va, vb), (vc, vd)) = gen(rng);
                (va, vb, vc, vd)
            }
        }),
        shrink: Box::new(move |(va, vb, vc, vd): &(A, B, C, D)| {
            (ab_cd.shrink)(&((va.clone(), vb.clone()), (vc.clone(), vd.clone())))
                .into_iter()
                .map(|((a2, b2), (c2, d2))| (a2, b2, c2, d2))
                .collect()
        }),
    }
}

/// Maximum number of successful shrink steps before reporting.
const MAX_SHRINK_STEPS: usize = 500;

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Runs `prop` against `cases` inputs drawn from `g`, shrinking and
/// reporting the first counterexample.
///
/// Each case draws from an independent fork of the root seed, so a
/// failure replays exactly under `NOMC_CHECK_SEED=<seed>` regardless of
/// how many cases preceded it. `NOMC_CHECK_CASES` overrides `cases`.
///
/// # Panics
///
/// Panics (failing the enclosing test) when the property is falsified.
// nomc-lint: allow(test-only-api) — property-test combinator
pub fn forall<T: Debug>(name: &str, cases: u32, g: &G<T>, prop: impl Fn(&T) -> Result<(), String>) {
    let cases = env_u64("NOMC_CHECK_CASES", u64::from(cases)) as u32;
    let seed = env_u64("NOMC_CHECK_SEED", 0x6E6F_6D63);
    let root = StdRng::seed_from_u64(seed);
    let run = |input: &T| -> Result<(), String> {
        match catch_unwind(AssertUnwindSafe(|| prop(input))) {
            Ok(r) => r,
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "property panicked".to_string());
                Err(format!("panic: {msg}"))
            }
        }
    };
    for case in 0..cases {
        let mut case_rng = root.fork(u64::from(case));
        let input = g.sample(&mut case_rng);
        let Err(first_msg) = run(&input) else {
            continue;
        };
        // Greedy shrink: take the first candidate that still fails.
        let mut current = input;
        let mut msg = first_msg;
        let mut steps = 0;
        'shrinking: while steps < MAX_SHRINK_STEPS {
            for cand in (g.shrink)(&current) {
                if let Err(m) = run(&cand) {
                    current = cand;
                    msg = m;
                    steps += 1;
                    continue 'shrinking;
                }
            }
            break;
        }
        panic!(
            "property `{name}` falsified at case {case}/{cases} \
             (replay with NOMC_CHECK_SEED={seed}):\n  input: {current:?}\n  error: {msg}\n  \
             ({steps} shrink steps)"
        );
    }
}

/// Asserts a condition inside a [`forall`] property, returning `Err`
/// instead of panicking so the harness can shrink the input.
#[macro_export]
macro_rules! check {
    ($cond:expr) => {
        if !$cond {
            return Err(format!("check failed: {}", stringify!($cond)));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!($($fmt)+));
        }
    };
}

/// Asserts equality inside a [`forall`] property.
#[macro_export]
macro_rules! check_eq {
    ($a:expr, $b:expr) => {{
        let (left, right) = (&$a, &$b);
        if left != right {
            return Err(format!(
                "check_eq failed: {:?} != {:?} ({} vs {})",
                left,
                right,
                stringify!($a),
                stringify!($b)
            ));
        }
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passing_property_runs_all_cases() {
        let counted = std::cell::Cell::new(0u32);
        forall("trivially_true", 32, &range(0u32..100), |_| {
            counted.set(counted.get() + 1);
            Ok(())
        });
        assert_eq!(counted.get(), 32);
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("le_50", 64, &range(0u32..100), |&v| {
                crate::check!(v < 50, "{v} not < 50");
                Ok(())
            });
        }));
        let msg = format!("{:?}", result.unwrap_err().downcast_ref::<String>());
        // The minimal counterexample of v<50 over 0..100 is exactly 50.
        assert!(msg.contains("input: 50"), "{msg}");
    }

    #[test]
    fn panics_inside_properties_are_counterexamples_too() {
        let result = catch_unwind(AssertUnwindSafe(|| {
            forall("no_panic", 64, &range(0u32..10), |&v| {
                assert!(v < 100, "impossible");
                if v > 5 {
                    panic!("boom {v}");
                }
                Ok(())
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn vec_generator_respects_length_and_shrinks() {
        let g = vec_of(range(0u32..10), 2..6);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            assert!((2..6).contains(&v.len()));
        }
        let candidates = (g.shrink)(&vec![5, 6, 7, 8]);
        assert!(candidates.iter().all(|c| c.len() >= 2));
        assert!(candidates.iter().any(|c| c.len() < 4));
    }

    #[test]
    fn zip_and_one_of_generate() {
        let g = zip3(
            range(0u32..4),
            boolean(),
            one_of(vec![just(1u8), just(2u8)]),
        );
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let (a, _b, c) = g.sample(&mut rng);
            assert!(a < 4);
            assert!(c == 1 || c == 2);
        }
    }

    #[test]
    fn deterministic_per_case_forking() {
        let g = range(0u64..1_000_000);
        let root = StdRng::seed_from_u64(0x6E6F_6D63);
        let a = g.sample(&mut root.fork(3));
        let b = g.sample(&mut root.fork(3));
        assert_eq!(a, b);
    }
}
