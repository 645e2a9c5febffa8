//! TSU scheduling policies (paper §III-A "Task Scheduling Unit").

use muchisim_config::SchedulingPolicy;
use muchisim_noc::QueueLink;

/// The TSU scheduling rule of a worker's tiles, held once per worker.
/// The only per-tile scheduler state is the round-robin pointer, one byte
/// in the worker's dense arrays, which [`Scheduler::pick`] takes by
/// reference.
#[derive(Debug)]
pub struct Scheduler {
    /// The policy; a priority order lists every task id, highest
    /// priority first.
    policy: SchedulingPolicy,
}

impl Scheduler {
    /// Builds a scheduler for `task_types` task ids with `policy`; task
    /// ids a priority order leaves out follow it in id order.
    pub fn new(policy: &SchedulingPolicy, task_types: u8) -> Self {
        let mut policy = policy.clone();
        if let SchedulingPolicy::Priority(order) = &mut policy {
            for t in 0..task_types {
                if !order.contains(&t) {
                    order.push(t);
                }
            }
        }
        Scheduler { policy }
    }

    /// The round-robin pointer (last served task id) a tile starts with:
    /// the last task id, so the first pick considers task 0 first.
    pub fn initial_rr(task_types: u8) -> u8 {
        task_types.saturating_sub(1)
    }

    /// Picks the next task-type queue to serve, or `None` if all are
    /// empty. `iqs[t]` is the link of the tile's input queue of task `t`
    /// and `rr_last` the tile's round-robin pointer.
    pub fn pick(&self, rr_last: &mut u8, iqs: &[QueueLink]) -> Option<u8> {
        match &self.policy {
            SchedulingPolicy::RoundRobin => {
                let n = iqs.len() as u8;
                for step in 1..=n {
                    let t = (*rr_last + step) % n;
                    if !iqs[t as usize].is_empty() {
                        *rr_last = t;
                        return Some(t);
                    }
                }
                None
            }
            SchedulingPolicy::Priority(order) => order
                .iter()
                .copied()
                .find(|&t| iqs.get(t as usize).is_some_and(|q| !q.is_empty())),
            SchedulingPolicy::OccupancyBased => iqs
                .iter()
                .enumerate()
                .filter(|(_, q)| !q.is_empty())
                .max_by_key(|(i, q)| (q.len(), usize::MAX - i))
                .map(|(i, _)| i as u8),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use muchisim_noc::Arena;

    /// Links of queues holding `lens[t]` messages each.
    fn queues(lens: &[usize]) -> Vec<QueueLink> {
        let mut arena: Arena<u32> = Arena::default();
        lens.iter()
            .map(|&n| {
                let mut q = QueueLink::default();
                (0..n as u32).for_each(|v| q.push_back(&mut arena, v));
                q
            })
            .collect()
    }

    #[test]
    fn round_robin_rotates_fairly() {
        let s = Scheduler::new(&SchedulingPolicy::RoundRobin, 3);
        let mut rr = Scheduler::initial_rr(3);
        let iqs = queues(&[2, 2, 2]);
        assert_eq!(s.pick(&mut rr, &iqs), Some(0));
        assert_eq!(s.pick(&mut rr, &iqs), Some(1));
        assert_eq!(s.pick(&mut rr, &iqs), Some(2));
        assert_eq!(s.pick(&mut rr, &iqs), Some(0));
    }

    #[test]
    fn round_robin_skips_empty() {
        let s = Scheduler::new(&SchedulingPolicy::RoundRobin, 3);
        let mut rr = Scheduler::initial_rr(3);
        let iqs = queues(&[0, 2, 0]);
        assert_eq!(s.pick(&mut rr, &iqs), Some(1));
        assert_eq!(s.pick(&mut rr, &iqs), Some(1));
        assert_eq!(s.pick(&mut rr, &queues(&[0, 0, 0])), None);
    }

    #[test]
    fn priority_serves_listed_first() {
        let s = Scheduler::new(&SchedulingPolicy::Priority(vec![2, 0]), 3);
        let mut rr = Scheduler::initial_rr(3);
        assert_eq!(s.pick(&mut rr, &queues(&[1, 5, 1])), Some(2));
        assert_eq!(s.pick(&mut rr, &queues(&[1, 5, 0])), Some(0));
        assert_eq!(
            s.pick(&mut rr, &queues(&[0, 5, 0])),
            Some(1),
            "unlisted tasks come last"
        );
        assert_eq!(rr, 2, "only round-robin moves the pointer");
    }

    #[test]
    fn occupancy_serves_fullest() {
        let s = Scheduler::new(&SchedulingPolicy::OccupancyBased, 3);
        let mut rr = Scheduler::initial_rr(3);
        assert_eq!(s.pick(&mut rr, &queues(&[1, 5, 3])), Some(1));
        // tie broken towards the lower task id
        assert_eq!(s.pick(&mut rr, &queues(&[4, 4, 1])), Some(0));
    }

    #[test]
    fn no_task_types_yields_none() {
        // an application without message-triggered tasks has no queues;
        // every policy must decline rather than divide by zero
        for policy in [
            SchedulingPolicy::RoundRobin,
            SchedulingPolicy::Priority(vec![1]),
            SchedulingPolicy::OccupancyBased,
        ] {
            let s = Scheduler::new(&policy, 0);
            assert_eq!(s.pick(&mut Scheduler::initial_rr(0), &[]), None);
        }
    }
}
