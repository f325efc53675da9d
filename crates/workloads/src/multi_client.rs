//! Multi-client query streams for the serving engine.
//!
//! The paper evaluates a single query stream; the `pi-engine` serving
//! layer executes batches submitted by many concurrent clients. This
//! module turns one [`WorkloadSpec`] into C per-client streams: every
//! client follows its own Figure-6 pattern (or all follow the same one)
//! with a seed derived deterministically from the base seed and the client
//! id, so multi-client experiments are exactly repeatable.

use crate::patterns::{self, Pattern, RangeQuery, WorkloadSpec};

/// How query patterns are assigned to clients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternAssignment {
    /// Every client runs the same pattern.
    Uniform(Pattern),
    /// Client `i` runs `patterns[i % patterns.len()]`.
    RoundRobin(Vec<Pattern>),
    /// Client `i` runs `Pattern::ALL[i % 8]` — the paper's full pattern mix.
    AllPatterns,
}

/// Specification of a multi-client workload.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClientSpec {
    /// Number of concurrent clients.
    pub clients: usize,
    /// Per-client workload parameters (domain, query count, selectivity,
    /// base seed).
    pub base: WorkloadSpec,
    /// Pattern assignment across clients.
    pub assignment: PatternAssignment,
}

/// One client's query stream.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientStream {
    /// Client identifier, `0..clients`.
    pub client: usize,
    /// The pattern this client follows.
    pub pattern: Pattern,
    /// The client's query sequence.
    pub queries: Vec<RangeQuery>,
}

impl MultiClientSpec {
    /// The pattern client `client` is assigned.
    pub(crate) fn pattern_for(&self, client: usize) -> Pattern {
        match &self.assignment {
            PatternAssignment::Uniform(p) => *p,
            PatternAssignment::RoundRobin(ps) => {
                assert!(
                    !ps.is_empty(),
                    "round-robin assignment needs at least one pattern"
                );
                ps[client % ps.len()]
            }
            PatternAssignment::AllPatterns => Pattern::ALL[client % Pattern::ALL.len()],
        }
    }
}

/// Derives a per-client seed that decorrelates the clients' stochastic
/// patterns (SplitMix64 finalizer over base seed and client id).
fn client_seed(base: u64, client: usize) -> u64 {
    let mut z = base.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client as u64 + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates every client's query stream for `spec`.
///
/// # Panics
/// Panics when `spec.clients == 0`.
pub fn generate(spec: &MultiClientSpec) -> Vec<ClientStream> {
    assert!(
        spec.clients > 0,
        "a multi-client workload needs at least one client"
    );
    (0..spec.clients)
        .map(|client| {
            let pattern = spec.pattern_for(client);
            let client_spec = spec.base.with_seed(client_seed(spec.base.seed, client));
            ClientStream {
                client,
                pattern,
                queries: patterns::generate(pattern, &client_spec),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    impl MultiClientSpec {
        /// A multi-client workload where every client runs a different
        /// Figure-6 pattern over the same domain.
        pub(crate) fn mixed(clients: usize, domain: u64, queries_per_client: usize) -> Self {
            MultiClientSpec {
                clients,
                base: WorkloadSpec::range(domain, queries_per_client),
                assignment: PatternAssignment::AllPatterns,
            }
        }
    }

    #[test]
    fn every_client_gets_its_own_stream() {
        let spec = MultiClientSpec::mixed(8, 100_000, 50);
        let streams = generate(&spec);
        assert_eq!(streams.len(), 8);
        for (i, s) in streams.iter().enumerate() {
            assert_eq!(s.client, i);
            assert_eq!(s.pattern, Pattern::ALL[i]);
            assert_eq!(s.queries.len(), 50);
            for q in &s.queries {
                assert!(q.high < 100_000);
            }
        }
    }

    #[test]
    fn same_pattern_clients_are_decorrelated() {
        let spec = MultiClientSpec {
            clients: 2,
            base: WorkloadSpec::range(1_000_000, 100),
            assignment: PatternAssignment::Uniform(Pattern::Random),
        };
        let streams = generate(&spec);
        assert_ne!(streams[0].queries, streams[1].queries);
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = MultiClientSpec::mixed(4, 10_000, 20);
        assert_eq!(generate(&spec), generate(&spec));
        let reseeded = MultiClientSpec {
            base: spec.base.with_seed(99),
            ..spec.clone()
        };
        assert_ne!(generate(&spec), generate(&reseeded));
    }

    #[test]
    fn round_robin_cycles_patterns() {
        let spec = MultiClientSpec {
            clients: 5,
            base: WorkloadSpec::range(10_000, 10),
            assignment: PatternAssignment::RoundRobin(vec![Pattern::ZoomIn, Pattern::SeqOver]),
        };
        let streams = generate(&spec);
        assert_eq!(streams[0].pattern, Pattern::ZoomIn);
        assert_eq!(streams[1].pattern, Pattern::SeqOver);
        assert_eq!(streams[4].pattern, Pattern::ZoomIn);
    }

    #[test]
    #[should_panic(expected = "at least one client")]
    fn zero_clients_rejected() {
        let _ = generate(&MultiClientSpec::mixed(0, 1_000, 10));
    }
}
