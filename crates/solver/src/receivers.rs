//! Seismograms and waveform post-processing.

/// A multi-component time series recorded at a receiver.
#[derive(Clone, Debug, PartialEq)]
pub struct Seismogram {
    pub dt: f64,
    pub ncomp: usize,
    /// Sample-major storage: `data[k * ncomp + c]`.
    pub data: Vec<f64>,
}

impl Seismogram {
    pub fn new(dt: f64, ncomp: usize) -> Seismogram {
        Seismogram { dt, ncomp, data: Vec::new() }
    }

    /// Make room for `n_samples` more samples, so the next that many
    /// [`Seismogram::push`]es allocate nothing.
    pub fn reserve(&mut self, n_samples: usize) {
        self.data.reserve(n_samples * self.ncomp);
    }

    pub fn push(&mut self, sample: &[f64]) {
        assert_eq!(sample.len(), self.ncomp);
        self.data.extend_from_slice(sample);
    }

    pub fn n_samples(&self) -> usize {
        self.data.len() / self.ncomp
    }

    /// One component as a contiguous vector.
    pub fn component(&self, c: usize) -> Vec<f64> {
        assert!(c < self.ncomp);
        self.data.iter().skip(c).step_by(self.ncomp).copied().collect()
    }

    /// Velocity of one component by central differences.
    pub fn velocity(&self, c: usize) -> Vec<f64> {
        let u = self.component(c);
        let n = u.len();
        let mut v = vec![0.0; n];
        for k in 1..n.saturating_sub(1) {
            v[k] = (u[k + 1] - u[k - 1]) / (2.0 * self.dt);
        }
        if n >= 2 {
            v[0] = (u[1] - u[0]) / self.dt;
            v[n - 1] = (u[n - 1] - u[n - 2]) / self.dt;
        }
        v
    }

    /// Peak absolute amplitude of a component.
    pub fn peak(&self, c: usize) -> f64 {
        self.component(c).iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

/// Append one displacement sample per receiver: trace `i` gets the three
/// components of `u` at node `nodes[i]`. This is the single sampling routine
/// every solver loop routes through (the harness's `ReceiverHook`, the tet
/// baseline) — the interpolation used to be re-implemented inline in each
/// step loop.
pub fn record_sample(traces: &mut [Seismogram], nodes: &[u32], u: &[f64]) {
    assert_eq!(traces.len(), nodes.len());
    for (tr, &nd) in traces.iter_mut().zip(nodes) {
        let b = nd as usize * 3;
        tr.push(&u[b..b + 3]);
    }
}

/// [`record_sample`] for a *planar* displacement vector (`dof = comp * n +
/// node`, `n = u.len() / 3` — the elastic solver's internal layout). The
/// sample values are identical to the interleaved variant's.
pub fn record_sample_planar(traces: &mut [Seismogram], nodes: &[u32], u: &[f64]) {
    assert_eq!(traces.len(), nodes.len());
    let n = u.len() / 3;
    for (tr, &nd) in traces.iter_mut().zip(nodes) {
        let nd = nd as usize;
        tr.push(&[u[nd], u[n + nd], u[2 * n + nd]]);
    }
}

/// Zero-phase low-pass filter: a 2nd-order Butterworth biquad applied
/// forward then backward (filtfilt), as used to band-limit the Fig 2.4
/// waveform comparisons to 0.5 / 1.0 Hz.
pub fn lowpass_filtfilt(x: &[f64], dt: f64, fc: f64) -> Vec<f64> {
    assert!(fc > 0.0 && dt > 0.0);
    let fwd = biquad_lowpass(x, dt, fc);
    let mut rev: Vec<f64> = fwd.into_iter().rev().collect();
    rev = biquad_lowpass(&rev, dt, fc);
    rev.reverse();
    rev
}

fn biquad_lowpass(x: &[f64], dt: f64, fc: f64) -> Vec<f64> {
    // Standard RBJ biquad, Q = 1/sqrt(2).
    let w0 = 2.0 * std::f64::consts::PI * fc * dt;
    let cw = w0.cos();
    let sw = w0.sin();
    let alpha = sw / 2.0f64.sqrt();
    let b0 = (1.0 - cw) / 2.0;
    let b1 = 1.0 - cw;
    let b2 = (1.0 - cw) / 2.0;
    let a0 = 1.0 + alpha;
    let a1 = -2.0 * cw;
    let a2 = 1.0 - alpha;
    let (b0, b1, b2, a1, a2) = (b0 / a0, b1 / a0, b2 / a0, a1 / a0, a2 / a0);
    let mut y = vec![0.0; x.len()];
    let (mut x1, mut x2, mut y1, mut y2) = (0.0, 0.0, 0.0, 0.0);
    for (i, &xi) in x.iter().enumerate() {
        let yi = b0 * xi + b1 * x1 + b2 * x2 - a1 * y1 - a2 * y2;
        y[i] = yi;
        x2 = x1;
        x1 = xi;
        y2 = y1;
        y1 = yi;
    }
    y
}

/// Normalized cross-correlation at zero lag — the waveform-similarity score
/// used to compare hex vs tet seismograms.
pub fn correlation(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len());
    let dot: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seismogram_components_roundtrip() {
        let mut s = Seismogram::new(0.1, 3);
        s.push(&[1.0, 2.0, 3.0]);
        s.push(&[4.0, 5.0, 6.0]);
        assert_eq!(s.n_samples(), 2);
        assert_eq!(s.component(0), vec![1.0, 4.0]);
        assert_eq!(s.component(2), vec![3.0, 6.0]);
        assert_eq!(s.peak(1), 5.0);
    }

    #[test]
    fn velocity_of_linear_ramp_is_constant() {
        let mut s = Seismogram::new(0.5, 1);
        for k in 0..10 {
            s.push(&[2.0 * k as f64 * 0.5]);
        }
        let v = s.velocity(0);
        for vi in v {
            assert!((vi - 2.0).abs() < 1e-12);
        }
    }

    #[test]
    fn lowpass_keeps_slow_kills_fast() {
        let dt = 0.01;
        let n = 2000;
        let slow: Vec<f64> =
            (0..n).map(|k| (2.0 * std::f64::consts::PI * 0.2 * k as f64 * dt).sin()).collect();
        let fast: Vec<f64> =
            (0..n).map(|k| (2.0 * std::f64::consts::PI * 10.0 * k as f64 * dt).sin()).collect();
        let mixed: Vec<f64> = slow.iter().zip(&fast).map(|(a, b)| a + b).collect();
        let filt = lowpass_filtfilt(&mixed, dt, 1.0);
        // Middle section (away from edge transients) matches the slow part.
        let mut err = 0.0;
        let mut norm = 0.0;
        for k in 300..n - 300 {
            err += (filt[k] - slow[k]).powi(2);
            norm += slow[k].powi(2);
        }
        assert!((err / norm).sqrt() < 0.05);
    }

    #[test]
    fn filtfilt_is_zero_phase() {
        // A symmetric pulse stays centered after filtering.
        let dt = 0.01;
        let n = 1001;
        let x: Vec<f64> = (0..n).map(|k| (-((k as f64 - 500.0) / 30.0).powi(2)).exp()).collect();
        let y = lowpass_filtfilt(&x, dt, 2.0);
        let peak_idx = y.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert!((peak_idx as i64 - 500).abs() <= 1, "peak moved to {peak_idx}");
    }

    #[test]
    fn correlation_bounds() {
        let a = [1.0, 2.0, -1.0, 0.5];
        assert!((correlation(&a, &a) - 1.0).abs() < 1e-12);
        let neg: Vec<f64> = a.iter().map(|v| -v).collect();
        assert!((correlation(&a, &neg) + 1.0).abs() < 1e-12);
        let zero = [0.0; 4];
        assert_eq!(correlation(&a, &zero), 0.0);
    }
}
