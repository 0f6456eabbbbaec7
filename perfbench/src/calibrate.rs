//! Host-speed calibration.
//!
//! On a shared host the speed of the machine drifts by up to 2× over
//! minutes, in streaks longer than a run, so raw times of two runs of one
//! build differ by as much as a regression. The served run therefore
//! times short bursts of a fixed reference task, which uses no code of the
//! program, before every set-up and between the segments of every phase,
//! and scales every time it reports by `REFERENCE_ROUND_S` over the median
//! burst: the time the work would have taken on the reference machine at
//! its usual speed. A change to the program moves the scaled times; a
//! slower host stretches the bursts too, and the scaling takes it out.
//!
//! The reference task is a ping-pong of small messages between two
//! threads over a loopback TCP connection: the wake-ups, context switches
//! and socket calls that the served path is made of. Of the tasks tried on
//! the reference machine (a pure ALU loop, random reads and writes in an
//! L2-sized and in a 4 MiB buffer, and this one), it tracked the served
//! times of all three workloads best: over runs of one build it cut the
//! spread of their times from up to 0.32 of the median to at most 0.11,
//! where the others left up to 0.21. One burst says little; the median of
//! the ~50 in a run tracks the host's speed over the run.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::Instant;

use crate::stats;

/// Round trips per round, and rounds per burst. A burst records the
/// median round, so a round the scheduler stretches does not count.
const ROUND_TRIPS: usize = 100;
const ROUNDS: usize = 3;
/// Bytes per message.
const MESSAGE: usize = 64;
/// Wall seconds of one round on the reference machine (2 vCPUs) at its
/// usual speed. Only the scale of the reported times depends on it.
pub const REFERENCE_ROUND_S: f64 = 0.00275;

/// The bursts timed so far.
#[derive(Default)]
pub struct Calibrator {
    bursts: Vec<f64>,
}

impl Calibrator {
    /// Time one burst of the reference task and record its median round.
    pub fn burst(&mut self) {
        let round = ping_pong().expect("loopback ping-pong");
        self.bursts.push(round);
    }

    pub fn bursts(&self) -> usize {
        self.bursts.len()
    }

    /// The scale of the run's times: reference time over the median burst.
    pub fn factor(&self) -> f64 {
        factor(&self.bursts)
    }
}

/// Reference time over the median of `bursts`; 1 when there are none.
fn factor(bursts: &[f64]) -> f64 {
    stats::median(bursts).map_or(1.0, |median| REFERENCE_ROUND_S / median)
}

/// [`ROUNDS`] rounds of [`ROUND_TRIPS`] echoed messages between this
/// thread and a second one; returns the median round's wall seconds.
fn ping_pong() -> std::io::Result<f64> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let mut client = TcpStream::connect(listener.local_addr()?)?;
    let (mut server, _) = listener.accept()?;
    client.set_nodelay(true)?;
    server.set_nodelay(true)?;
    std::thread::scope(|scope| {
        // Echo until the client hangs up.
        scope.spawn(move || {
            let mut message = [0u8; MESSAGE];
            while server.read_exact(&mut message).is_ok() {
                if server.write_all(&message).is_err() {
                    break;
                }
            }
        });
        let mut message = [0u8; MESSAGE];
        let mut rounds = Vec::with_capacity(ROUNDS);
        let timed = (0..ROUNDS).try_for_each(|_| {
            let start = Instant::now();
            for _ in 0..ROUND_TRIPS {
                client.write_all(&message)?;
                client.read_exact(&mut message)?;
            }
            rounds.push(start.elapsed().as_secs_f64());
            Ok(())
        });
        // Hang up on every path, or the echo thread would wait forever.
        let _ = client.shutdown(Shutdown::Both);
        timed.map(|()| stats::median(&rounds).expect("at least one round"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factor_is_reference_over_median_burst() {
        let r = REFERENCE_ROUND_S;
        assert_eq!(factor(&[]), 1.0);
        assert!((factor(&[r]) - 1.0).abs() < 1e-12);
        // A host at half speed takes twice as long; its times are halved,
        // and one stretched burst does not move the median.
        assert!((factor(&[2.0 * r, 9.0 * r, 2.0 * r]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bursts_are_recorded() {
        let mut calibrator = Calibrator::default();
        calibrator.burst();
        calibrator.burst();
        assert_eq!(calibrator.bursts(), 2);
        assert!(calibrator.factor() > 0.0 && calibrator.factor().is_finite());
    }
}
