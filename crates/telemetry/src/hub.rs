//! The bounded channel between the barrier leader and subscriber I/O.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;

use crate::frames::Frame;
use crate::sample::{MetricsSample, SCHEMA_VERSION};
use crate::subscribers::{FrameRecord, Subscriber};

/// Channel depth: enough to ride out a subscriber I/O hiccup lasting
/// hundreds of capture intervals before anything is dropped.
const CHANNEL_DEPTH: usize = 256;

/// One record of the stream.
#[derive(Debug)]
enum Record {
    Sample(MetricsSample),
    Frame(FrameRecord),
}

/// Fans records out to subscribers on a dedicated thread.
///
/// [`publish`](TelemetryHub::publish) and
/// [`publish_frame`](TelemetryHub::publish_frame) are a `try_send`: the
/// simulation never blocks on telemetry I/O. When the channel is full
/// the record is counted as dropped and the run continues — wards are
/// evaluated upstream of the hub, so a drop loses observation, never
/// control. A subscriber that *fails* is different: the hub raises
/// [`failed`](TelemetryHub::failed), which the publisher polls to end
/// the run instead of simulating on into a dead stream.
#[derive(Debug)]
pub struct TelemetryHub {
    tx: Option<SyncSender<Record>>,
    dropped: AtomicU64,
    failed: Arc<AtomicBool>,
    worker: Option<JoinHandle<Result<(), String>>>,
}

impl TelemetryHub {
    /// Spawns the subscriber thread. An empty subscriber list is valid
    /// (the hub then just counts records into the void).
    pub fn spawn(mut subscribers: Vec<Box<dyn Subscriber>>) -> Self {
        let (tx, rx) = sync_channel::<Record>(CHANNEL_DEPTH);
        // the flag publishes nothing but itself (the error text travels
        // through the join), so relaxed accesses suffice
        let failed = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&failed);
        let worker = std::thread::Builder::new()
            .name("telemetry".into())
            .spawn(move || {
                // a failed subscriber is muted (None) and its first error kept
                let mut errors: Vec<Option<String>> = vec![None; subscribers.len()];
                for record in rx {
                    for (sub, err) in subscribers.iter_mut().zip(errors.iter_mut()) {
                        if err.is_none() {
                            *err = match &record {
                                Record::Sample(s) => sub.on_sample(s),
                                Record::Frame(f) => sub.on_frame(f),
                            }
                            .err();
                            if err.is_some() {
                                flag.store(true, Ordering::Relaxed);
                            }
                        }
                    }
                }
                for (sub, err) in subscribers.iter_mut().zip(errors.iter_mut()) {
                    if err.is_none() {
                        *err = sub.on_close().err();
                    }
                }
                match errors.into_iter().flatten().next() {
                    Some(e) => Err(e),
                    None => Ok(()),
                }
            })
            .expect("spawn telemetry thread");
        TelemetryHub {
            tx: Some(tx),
            dropped: AtomicU64::new(0),
            failed,
            worker: Some(worker),
        }
    }

    /// Offers a sample to the subscriber thread without blocking.
    pub fn publish(&self, sample: MetricsSample) {
        self.offer(Record::Sample(sample));
    }

    /// Offers a merged statistics frame to the subscriber thread without
    /// blocking.
    pub fn publish_frame(&self, frame: Frame) {
        self.offer(Record::Frame(FrameRecord {
            v: SCHEMA_VERSION,
            frame,
        }));
    }

    fn offer(&self, record: Record) {
        let Some(tx) = &self.tx else { return };
        // full, or hung up by a subscriber thread that panicked
        if tx.try_send(record).is_err() {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records dropped because the channel was full (or its consumer
    /// gone).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Whether a subscriber has returned an error or panicked (the
    /// thread outlives the channel's sender otherwise).
    /// [`close`](TelemetryHub::close) reports what went wrong.
    pub fn failed(&self) -> bool {
        self.failed.load(Ordering::Relaxed)
            || self.worker.as_ref().is_some_and(JoinHandle::is_finished)
    }

    /// Drains the channel, closes every subscriber, and returns the
    /// first subscriber error (if any).
    ///
    /// # Errors
    ///
    /// Returns the first I/O error any subscriber hit while consuming
    /// or closing the stream, or a note that a subscriber panicked.
    pub fn close(mut self) -> Result<(), String> {
        self.shutdown()
    }

    fn shutdown(&mut self) -> Result<(), String> {
        drop(self.tx.take()); // hang up: the worker drains and exits
        match self.worker.take() {
            Some(handle) => handle
                .join()
                .map_err(|_| "a telemetry subscriber panicked".to_string())?,
            None => Ok(()),
        }
    }
}

impl Drop for TelemetryHub {
    fn drop(&mut self) {
        let _ = self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::subscribers::MemorySubscriber;

    #[test]
    fn records_flow_through_to_subscribers_in_order() {
        let mem = MemorySubscriber::new();
        let (samples, frames) = (mem.samples(), mem.frames());
        let hub = TelemetryHub::spawn(vec![Box::new(mem)]);
        for seq in 0..10 {
            hub.publish(MetricsSample {
                seq,
                cycle: seq * 100,
                ..MetricsSample::default()
            });
            hub.publish_frame(Frame {
                index: seq,
                ..Frame::default()
            });
        }
        assert_eq!(hub.dropped(), 0);
        assert!(!hub.failed());
        hub.close().unwrap();
        let samples = samples.lock().unwrap();
        let frames = frames.lock().unwrap();
        assert_eq!((samples.len(), frames.len()), (10, 10));
        for i in 0..10 {
            assert_eq!(samples[i].seq, i as u64);
            assert_eq!(frames[i].index, i as u64);
        }
    }

    #[test]
    fn empty_hub_closes_cleanly() {
        let hub = TelemetryHub::spawn(Vec::new());
        hub.publish(MetricsSample::default());
        assert!(hub.close().is_ok());
    }

    /// Fails (or panics) on every sample.
    struct Failing {
        panic: bool,
    }

    impl Subscriber for Failing {
        fn on_sample(&mut self, _: &MetricsSample) -> Result<(), String> {
            assert!(!self.panic, "subscriber bug");
            Err("disk full".into())
        }
    }

    #[test]
    fn a_failing_or_panicking_subscriber_raises_the_flag_and_surfaces_on_close() {
        for (panic, why) in [(false, "disk full"), (true, "panicked")] {
            let hub = TelemetryHub::spawn(vec![Box::new(Failing { panic })]);
            assert!(!hub.failed());
            hub.publish(MetricsSample::default());
            // the flag follows the failed call without the hub being closed
            while !hub.failed() {
                std::thread::yield_now();
            }
            let err = hub.close().unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }
}
