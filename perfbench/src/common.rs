//! Inputs shared by the release workloads: seeded request streams, the
//! engines they run against, and the outcome of a single release.

use std::sync::Arc;

use pufferfish_core::queries::StateFrequencyQuery;
use pufferfish_core::{LipschitzQuery, NoisyRelease, PrivacyBudget, ReleaseEngine};
use pufferfish_net::{Frame, WireQuery};
use pufferfish_service::{ReleaseRequest, ServiceError};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::report::Outcomes;

/// SplitMix64 finaliser: the benchmark's only source of pseudo-randomness
/// for request streams.
pub fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A value drawn from `(seed, stream, index)`.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(stream.wrapping_mul(0x1000_0000_01B3) ^ splitmix(index)))
}

/// How a release stream names its users.
#[derive(Debug, Clone, Copy)]
pub enum Users {
    /// Every request a distinct user of a `space`-id identity space, charged
    /// as `TENANT#hex-id`, as the wire server scopes them.
    Distinct { space: u64 },
    /// `per_epoch` requests spread over `users` users; every epoch brings a
    /// fresh set of users, so history depth is bounded by the epoch length.
    Hot { users: u64, per_epoch: u64 },
}

/// A seeded, indexable stream of release requests.
pub struct ReleaseStream {
    pub seed: u64,
    pub users: Users,
    pub chain_length: usize,
    pub epsilon: f64,
    pub databases: Arc<Vec<Vec<usize>>>,
    pub query: Arc<dyn LipschitzQuery>,
}

/// The wire tenant every wire request is scoped under.
pub const TENANT: &str = "bench";

/// Step through the distinct-user identity space: coprime to 10^7, so the
/// first 10^7 requests name 10^7 distinct users.
const USER_STEP: u64 = 6_700_417;

impl ReleaseStream {
    pub fn new(
        seed: u64,
        users: Users,
        chain_length: usize,
        epsilon: f64,
        databases: Vec<Vec<usize>>,
    ) -> Self {
        ReleaseStream {
            seed,
            users,
            chain_length,
            epsilon,
            databases: Arc::new(databases),
            query: Arc::new(StateFrequencyQuery::new(1, chain_length)),
        }
    }

    /// The numeric user id of request `i` (the wire carries it as is).
    pub fn user_id(&self, i: u64) -> u64 {
        match self.users {
            Users::Distinct { space } => {
                (draw(self.seed, 1, 0) % space + i.wrapping_mul(USER_STEP) % space) % space
            }
            Users::Hot { users, per_epoch } => {
                let epoch = i / per_epoch;
                epoch * users + draw(self.seed, 1, i) % users
            }
        }
    }

    /// The budget identity request `i` is charged to.
    pub fn user(&self, i: u64) -> String {
        self.user_name(self.user_id(i))
    }

    /// The budget identity of user id `id`.
    pub fn user_name(&self, id: u64) -> String {
        match self.users {
            // The wire server charges `tenant#hex-id`.
            Users::Distinct { .. } => format!("{TENANT}#{id:x}"),
            Users::Hot { users, .. } => format!("hot-{}-{:02}", id / users, id % users),
        }
    }

    pub fn database_index(&self, i: u64) -> usize {
        (draw(self.seed, 2, i) % self.databases.len() as u64) as usize
    }

    pub fn database(&self, i: u64) -> &[usize] {
        &self.databases[self.database_index(i)]
    }

    pub fn noise_seed(&self, i: u64) -> u64 {
        draw(self.seed, 3, i)
    }

    pub fn budget(&self) -> PrivacyBudget {
        PrivacyBudget::new(self.epsilon).expect("workload epsilon is positive")
    }

    pub fn request(&self, i: u64) -> ReleaseRequest {
        ReleaseRequest {
            user: self.user(i),
            query: Arc::clone(&self.query),
            database: self.database(i).to_vec(),
            epsilon: self.epsilon,
            seed: self.noise_seed(i),
        }
    }

    pub fn wire_query(&self) -> WireQuery {
        WireQuery::StateFrequency {
            state: 1,
            length: self.chain_length as u32,
        }
    }

    pub fn frame(&self, i: u64) -> Frame {
        Frame::release(
            self.user_id(i),
            self.wire_query(),
            self.database(i),
            self.epsilon,
            self.noise_seed(i),
        )
        .expect("benchmark states fit the wire")
    }

    /// The engine-direct release of request `i`: what the service and the
    /// wire must reproduce bitwise.
    pub fn direct(&self, engine: &ReleaseEngine, i: u64) -> pufferfish_core::Result<NoisyRelease> {
        let mut rng = StdRng::seed_from_u64(self.noise_seed(i));
        engine.release(&*self.query, self.database(i), self.budget(), &mut rng)
    }
}

/// The release checks every answered request goes through: exactly one
/// value, and the engine's calibrated scale for the request's key.
#[derive(Debug, Default, Clone)]
pub struct ReleaseChecks {
    pub checked: u64,
    pub wrong_length: u64,
    pub wrong_scale: u64,
    /// Sampled `(request index, value bits)` for the bitwise comparison.
    pub samples: Vec<(u64, u64)>,
}

/// Every this many requests, the answer is kept for the bitwise comparison
/// against an engine-direct release.
pub const SAMPLE_EVERY: u64 = 997;

impl ReleaseChecks {
    pub fn observe(&mut self, index: u64, values: &[f64], scale: f64, expected_scale: f64) {
        self.checked += 1;
        if values.len() != 1 {
            self.wrong_length += 1;
        }
        if scale.to_bits() != expected_scale.to_bits() {
            self.wrong_scale += 1;
        }
        if index.is_multiple_of(SAMPLE_EVERY) && !values.is_empty() {
            self.samples.push((index, values[0].to_bits()));
        }
    }

    pub fn merge(&mut self, other: ReleaseChecks) {
        self.checked += other.checked;
        self.wrong_length += other.wrong_length;
        self.wrong_scale += other.wrong_scale;
        self.samples.extend(other.samples);
    }

    /// Adds the three release checks to `report`; `surface` names where the
    /// answers came from.
    pub fn report(
        &self,
        report: &mut crate::report::Report,
        surface: &str,
        stream: &ReleaseStream,
        engine: &ReleaseEngine,
    ) {
        report.check(
            &format!("{surface}.one_value"),
            self.wrong_length == 0 && self.checked > 0,
            format!(
                "{} of {} releases without exactly one value",
                self.wrong_length, self.checked
            ),
        );
        report.check(
            &format!("{surface}.calibrated_scale"),
            self.wrong_scale == 0 && self.checked > 0,
            format!(
                "{} of {} releases off the calibrated scale",
                self.wrong_scale, self.checked
            ),
        );
        let mut mismatched = 0usize;
        for &(index, bits) in &self.samples {
            match stream.direct(engine, index) {
                Ok(direct) if direct.values.len() == 1 && direct.values[0].to_bits() == bits => {}
                _ => mismatched += 1,
            }
        }
        report.check(
            &format!("{surface}.bitwise_vs_engine"),
            mismatched == 0 && !self.samples.is_empty(),
            format!(
                "{mismatched} of {} sampled releases differ from engine-direct",
                self.samples.len()
            ),
        );
    }
}

/// Classifies a service-layer refusal into the failure accounting.
pub fn count_service_error(outcomes: &mut Outcomes, error: &ServiceError) {
    match error {
        ServiceError::QueueFull { .. } => outcomes.busy += 1,
        ServiceError::BudgetExhausted { .. } => outcomes.budget += 1,
        ServiceError::WaitTimeout { .. } => outcomes.timeout += 1,
        _ => outcomes.error += 1,
    }
}

/// Classifies a wire response frame; `true` for a release.
pub fn count_frame(outcomes: &mut Outcomes, frame: &Frame) -> bool {
    match frame {
        Frame::ReleaseOk { .. } => {
            outcomes.ok += 1;
            true
        }
        Frame::Busy { .. } => {
            outcomes.busy += 1;
            false
        }
        Frame::BudgetExhausted { .. } => {
            outcomes.budget += 1;
            false
        }
        _ => {
            outcomes.error += 1;
            false
        }
    }
}

/// The moment a measured loop stops.
pub struct Deadline(std::time::Instant);

impl Deadline {
    pub fn after(seconds: f64) -> Self {
        Deadline(std::time::Instant::now() + std::time::Duration::from_secs_f64(seconds.max(0.0)))
    }

    pub fn passed(&self) -> bool {
        std::time::Instant::now() >= self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn stream(users: Users) -> ReleaseStream {
        ReleaseStream::new(7, users, 4, 0.5, vec![vec![0, 1, 0, 1], vec![1, 1, 0, 0]])
    }

    #[test]
    fn distinct_users_are_distinct() {
        let s = stream(Users::Distinct { space: 10_000_000 });
        let ids: HashSet<u64> = (0..50_000).map(|i| s.user_id(i)).collect();
        assert_eq!(ids.len(), 50_000);
        assert!(ids.iter().all(|&id| id < 10_000_000));
    }

    #[test]
    fn hot_users_rotate_per_epoch() {
        let s = stream(Users::Hot {
            users: 4,
            per_epoch: 100,
        });
        let first: HashSet<String> = (0..100).map(|i| s.user(i)).collect();
        let second: HashSet<String> = (100..200).map(|i| s.user(i)).collect();
        assert!(first.len() <= 4 && second.len() <= 4);
        assert!(first.is_disjoint(&second));
    }

    #[test]
    fn streams_are_seeded() {
        let a = stream(Users::Distinct { space: 100 });
        let b = stream(Users::Distinct { space: 100 });
        assert_eq!(a.noise_seed(5), b.noise_seed(5));
        assert_eq!(a.database_index(5), b.database_index(5));
        assert_ne!(a.noise_seed(5), a.noise_seed(6));
    }
}
