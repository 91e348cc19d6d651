//! Quintic Hermite tables of smooth radial functions: one quintic per
//! evaluation instead of the `erf` and `exp`s of a closed form.

/// A smooth function on `[x0, x0 + (n - 1) h]` through `n` uniform nodes,
/// each holding `[v, v' h, v'' h^2]`. Between two nodes it is the one quintic
/// that matches all six; [`HermiteTable::eval`] returns that quintic and its
/// exact derivative, so a force taken from the slope is the gradient of the
/// energy taken from the value.
#[derive(Clone, Debug)]
pub struct HermiteTable {
    x0: f64,
    per_unit: f64,
    nodes: Vec<[f64; 3]>,
}

impl HermiteTable {
    /// Tabulates `f(x) = [v, v', v'']` at `x0 + k / per_unit` for every node
    /// from `x0` to `x1`.
    pub fn new(x0: f64, x1: f64, per_unit: f64, f: impl Fn(f64) -> [f64; 3]) -> Self {
        let h = 1.0 / per_unit;
        let last = ((x1 - x0) * per_unit).round() as usize;
        let nodes = (0..=last.max(1))
            .map(|k| {
                let [v, d, s] = f(x0 + k as f64 * h);
                [v, d * h, s * h * h]
            })
            .collect();
        Self {
            x0,
            per_unit,
            nodes,
        }
    }

    /// The interpolant and its derivative `(v, dv/dx)` at `x`. Inside the
    /// nodes' range only: outside, the end interval's quintic is
    /// extrapolated.
    #[inline(always)]
    pub fn eval(&self, x: f64) -> (f64, f64) {
        let u = (x - self.x0) * self.per_unit;
        let k = (u as usize).min(self.nodes.len() - 2);
        let t = u - k as f64;
        let ([v0, d0, s0], [v1, d1, s1]) = (self.nodes[k], self.nodes[k + 1]);
        // p(t) = v0 + d0 t + s0 t^2 / 2 + c3 t^3 + c4 t^4 + c5 t^5 with
        // p, p', p'' at t = 1 equal to v1, d1, s1.
        let dv = v1 - v0;
        let c2 = 0.5 * s0;
        let c3 = 10.0 * dv - 6.0 * d0 - 4.0 * d1 - 1.5 * s0 + 0.5 * s1;
        let c4 = -15.0 * dv + 8.0 * d0 + 7.0 * d1 + 1.5 * s0 - s1;
        let c5 = 6.0 * dv - 3.0 * (d0 + d1) - 0.5 * (s0 - s1);
        let v = v0 + t * (d0 + t * (c2 + t * (c3 + t * (c4 + t * c5))));
        let dt = d0 + t * (2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4 + t * 5.0 * c5)));
        (v, dt * self.per_unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_quintic_is_reproduced_and_exp_to_h6() {
        let p = |x: f64| {
            [
                x.powi(5) - 3.0 * x * x,
                5.0 * x.powi(4) - 6.0 * x,
                20.0 * x.powi(3) - 6.0,
            ]
        };
        let (t, e) = (
            HermiteTable::new(-1.0, 2.0, 4.0, p),
            HermiteTable::new(0.0, 1.0, 16.0, |x| [x.exp(); 3]),
        );
        for x in (0..=300).map(|i| -1.0 + 0.01 * i as f64) {
            let ((v, d), [v0, d0, _]) = (t.eval(x), p(x));
            assert!((v - v0).abs() < 1e-13 && (d - d0).abs() < 1e-12, "x = {x}");
            let ((v, d), y) = (e.eval((x + 1.0) / 3.0), ((x + 1.0) / 3.0).exp());
            assert!((v - y).abs() < 1e-11 && (d - y).abs() < 1e-9, "x = {x}");
        }
    }
}
