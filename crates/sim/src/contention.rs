//! Contention-based microarchitectural state: the volatile weird registers
//! of Table 1 (ROB occupancy, multiplier-port pressure, VMX warm-up).
//!
//! These states decay with time — the paper calls this *volatility* and notes
//! it improves stealth at the cost of reliability (§3.1, property 1).

/// The execution-port / buffer contention state of the core.
///
/// # Examples
///
/// ```
/// use uwm_sim::contention::Contention;
/// let mut c = Contention::new();
/// c.pressure_mul(100, 0);        // write 1: hammer the multiplier at cycle 0
/// assert!(c.mul_delay(10) > 0);  // read soon after: queuing delay visible
/// assert_eq!(c.mul_delay(10_000), 0); // the value decayed away
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contention {
    /// Cycle until which the multiplier pipeline is backed up.
    mul_busy_until: u64,
    /// Number of in-flight long-dependency micro-ops (decays).
    rob_pressure: u64,
    /// Cycle at which ROB pressure was last updated.
    rob_stamp: u64,
    /// Cycle of the most recent VMX-class instruction (warm-up state).
    last_vmx: Option<u64>,
}

/// How long (cycles) VMX machinery stays warm after use.
pub const VMX_WARM_WINDOW: u64 = 5_000;
/// Cycles of multiplier occupancy one `mul` contributes, per cycle of its
/// latency (60 at the default 5-cycle latency). Larger than the latency
/// because a 64-bit multiply occupies the port for several µops — this is
/// what lets a burst of multiplies build a visible queue even though the
/// issuing thread itself is throttled by fetch. Scaling with the latency
/// keeps that true when every latency is scaled: at eight times the
/// default latencies a burst `mul` takes 72 cycles (a 32-cycle L1 fetch
/// and a 40-cycle multiply), so a fixed 60-cycle occupancy never backs
/// the queue up.
pub const MUL_OCCUPANCY_PER_LATENCY: u64 = 12;
/// ROB pressure drains at one micro-op per this many cycles.
pub const ROB_DRAIN_RATE: u64 = 4;
/// Maximum queue the multiplier accumulates.
pub const MUL_QUEUE_CAP: u64 = 2_000;

impl Contention {
    /// Fresh, fully drained state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Writes the mul-WR: issuing a burst of multiplies at `now` backs up
    /// the multiplier pipeline by `burst` cycles.
    pub fn pressure_mul(&mut self, burst: u64, now: u64) {
        let base = self.mul_busy_until.max(now);
        self.mul_busy_until = (base + burst).min(now + MUL_QUEUE_CAP);
    }

    /// Reads the mul-WR: extra latency a multiply issued at `now` pays
    /// while the pipeline drains. Reading is itself a (small) write — the
    /// caller should account the executed multiply via
    /// [`Contention::pressure_mul`].
    pub fn mul_delay(&self, now: u64) -> u64 {
        self.mul_busy_until.saturating_sub(now)
    }

    /// Writes the ROB-WR: `n` long-dependency micro-ops enter the reorder
    /// buffer at `now`.
    pub fn pressure_rob(&mut self, n: u64, now: u64) {
        self.drain_rob(now);
        self.rob_pressure += n;
    }

    /// Reads the ROB-WR: current pressure (stall cycles an allocation-bound
    /// instruction observes) at `now`.
    pub fn rob_stall(&mut self, now: u64) -> u64 {
        self.drain_rob(now);
        self.rob_pressure
    }

    fn drain_rob(&mut self, now: u64) {
        let elapsed = now.saturating_sub(self.rob_stamp);
        self.rob_pressure = self.rob_pressure.saturating_sub(elapsed / ROB_DRAIN_RATE);
        self.rob_stamp = now;
    }

    /// Records execution of a VMX-class instruction at `now` and returns
    /// whether the machinery was warm when it started.
    pub fn vmx_execute(&mut self, now: u64) -> bool {
        let warm = self.vmx_warm(now);
        self.last_vmx = Some(now);
        warm
    }

    /// True if a VMX instruction at `now` would hit warm machinery.
    pub fn vmx_warm(&self, now: u64) -> bool {
        matches!(self.last_vmx, Some(t) if now.saturating_sub(t) <= VMX_WARM_WINDOW)
    }

    /// Resets all contention state (machine reset / fence).
    pub fn reset(&mut self) {
        *self = Self::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_pressure_accumulates_and_decays() {
        let mut c = Contention::new();
        c.pressure_mul(50, 0);
        c.pressure_mul(50, 0);
        assert_eq!(c.mul_delay(0), 100);
        assert_eq!(c.mul_delay(60), 40);
        assert_eq!(c.mul_delay(100), 0);
    }

    #[test]
    fn mul_queue_is_capped() {
        let mut c = Contention::new();
        for _ in 0..1000 {
            c.pressure_mul(100, 0);
        }
        assert!(c.mul_delay(0) <= MUL_QUEUE_CAP);
    }

    #[test]
    fn rob_pressure_drains_over_time() {
        let mut c = Contention::new();
        c.pressure_rob(100, 0);
        assert_eq!(c.rob_stall(0), 100);
        let later = c.rob_stall(200);
        assert!(later < 100, "pressure must drain, got {later}");
        assert_eq!(c.rob_stall(100_000), 0);
    }

    #[test]
    fn vmx_warm_window() {
        let mut c = Contention::new();
        assert!(!c.vmx_warm(0));
        assert!(!c.vmx_execute(100), "first execution starts cold");
        assert!(c.vmx_execute(200), "immediately after: warm");
        assert!(!c.vmx_warm(200 + VMX_WARM_WINDOW + 1), "decays to cold");
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = Contention::new();
        c.pressure_mul(100, 0);
        c.pressure_rob(100, 0);
        c.vmx_execute(0);
        c.reset();
        assert_eq!(c.mul_delay(0), 0);
        assert_eq!(c.rob_stall(0), 0);
        assert!(!c.vmx_warm(0));
    }
}
