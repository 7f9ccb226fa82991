"""Independent reference implementations used to cross-check the package,
and readers of the CSV files it writes.

Everything in here is deliberately dumb: explicit loops, naive formulas,
no reuse of package internals beyond parameter containers.  Slow is fine.
"""

from __future__ import annotations

import csv

import numpy as np
from scipy.special import expit

from memperceptron.data import Gate


def euler_pulse_batch(mu_v, r_on, r_off, d, i_gamma, gamma0, current, n_steps, dt=1e-5):
    """Fixed-step time integration of constant-current pulses.

    All arguments are arrays over a batch of independent pulses; pulse k
    runs for n_steps[k] steps of size dt.  Returns (final_gamma, voltage)
    with the voltage read at the end of the pulse, R_off approximation.
    """
    mu_v, r_on, r_off = map(np.asarray, (mu_v, r_on, r_off))
    d, i_gamma, current = map(np.asarray, (d, i_gamma, current))
    n_steps = np.asarray(n_steps)
    driven = mu_v * (r_on / d) * current
    rate = np.where(driven > i_gamma, driven - i_gamma, 0.0)
    g = np.asarray(gamma0, dtype=float).copy()
    for k in range(int(n_steps.max())):
        stepped = np.minimum(g + rate * dt, d)
        g = np.where(k < n_steps, stepped, g)
    v = r_off * (1.0 - g / d) * current
    return g, v


def drift_rate(params, current, i_gamma=0.0):
    """State drift rate under constant current, zero below threshold.

    gamma_dot = mu_v * (r_on / d) * I - i_gamma once the driven term
    exceeds the threshold current i_gamma >= 0, else 0.  Negative
    currents never drift (the driven term is below any non-negative
    threshold).
    """
    driven = params.mu_v * (params.r_on / params.d) * current
    if driven > i_gamma:
        return driven - i_gamma
    return 0.0


def apply_read_pulse(params, gamma0, current, duration, i_gamma=0.0):
    """Integrate a constant-current pulse in closed form; returns (final gamma, voltage).

    The rate is constant, so gamma(t) = gamma0 + rate * t until it pins at
    d.  The reported voltage is taken at the end of the pulse in the
    R_off approximation V = r_off * (1 - gamma/d) * I, valid because
    r_on / r_off is small.  For a zero threshold this makes the response
    of a fresh device quadratic in the drive: V = r_off*I - r_off*mu_v*(r_on/d^2)*I^2*t.
    """
    if duration < 0.0:
        raise ValueError(f"duration must be non-negative, got {duration}")
    if not 0.0 <= gamma0 <= params.d:
        raise ValueError(f"gamma0 {gamma0} outside [0, {params.d}]")
    final = gamma0 + drift_rate(params, current, i_gamma) * duration
    if final > params.d:
        final = params.d
    return final, params.r_off * (1.0 - final / params.d) * current


def naive_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def clamp(value, bound):
    """np.clip(value, -bound, bound): the lower bound first, then the upper,
    a tie keeping value; a NaN bound gives NaN."""
    if bound != bound:
        return bound
    value = -bound if value < -bound else value
    return bound if value > bound else value


class Overshoot(Exception):
    """A single-pulse increment reaching the window: key is (epoch, sample,
    weight), each counted from 0."""

    def __init__(self, key, increment):
        super().__init__(key, increment)
        self.key, self.increment = key, increment


def check_window(increments, window_a, epoch, sample):
    """Raise Overshoot at the first of the increments with |inc| >=
    window_a; window_a None checks nothing."""
    if window_a is not None:
        for weight, inc in enumerate(increments):
            if abs(inc) >= window_a:
                raise Overshoot((epoch, sample, weight), float(inc))


def ideal_slp_run(w0, eta, xs, ts, epochs, rng, record_weights=False,
                  bound=np.inf, sigmoid=naive_sigmoid, window_a=None):
    """Textbook online delta rule on a logistic unit, no device in sight.

    w0 has the bias weight last.  Every weight is clamped to +/- bound
    after its update.  Given window_a, every write is a single pulse: the
    first increment with |inc| >= window_a, weights before the bias,
    raises Overshoot before the sample writes anything.  Sums start from
    their first term.  With sigmoid=scipy.special.expit the float
    operations are the trainer's own, so results agree bit for bit; the
    naive 1/(1+exp(-z)) differs from expit in the last bit on a few
    percent of inputs.  Returns per-epoch summed cost and, optionally,
    the weight vector after every sample.
    """
    w = np.array(w0, dtype=float)
    n = xs.shape[1]
    history = []
    trail = []
    for e in range(epochs):
        order = rng.permutation(len(xs))
        total = 0.0
        for k, i in enumerate(order):
            s = w[0] * xs[i, 0]
            for j in range(1, n):
                s += w[j] * xs[i, j]
            out = sigmoid(s + w[n])
            diff = ts[i] - out
            total += 0.5 * diff * diff
            grad = eta * diff * (out * (1.0 - out))
            increments = [grad * xs[i, j] for j in range(n)] + [grad]
            check_window(increments, window_a, e, k)
            for j in range(n + 1):
                w[j] = clamp(w[j] + increments[j], bound)
            if record_weights:
                trail.append(w.copy())
        history.append(total)
    if record_weights:
        return np.array(history), np.array(trail)
    return np.array(history)


def glorot_slp_loop_init(input_dim, rng):
    """One machine's Glorot draws: a single rng.uniform call in
    +/- sqrt(6 / (input_dim + 1)) for the weights and the bias weight."""
    limit = np.sqrt(6.0 / (input_dim + 1))
    return rng.uniform(-limit, limit, size=input_dim + 1)


def aggregate_curve_loop(histories):
    """Per-epoch (mean, population std) of a (realizations, epochs) array,
    one np.mean and np.std call on each epoch's column."""
    return [(float(np.mean(histories[:, e])), float(np.std(histories[:, e])))
            for e in range(histories.shape[1])]


def glorot_loop_init(layer_sizes, rng):
    """One network's Glorot draws, one rng.uniform call per array in the
    order W1, b1, W2, b2, ..., each in +/- sqrt(6 / (n_in + n_out))."""
    weights, biases = [], []
    for n_in, n_out in zip(layer_sizes[:-1], layer_sizes[1:]):
        limit = np.sqrt(6.0 / (n_in + n_out))
        weights.append(rng.uniform(-limit, limit, size=(n_in, n_out)))
        biases.append(rng.uniform(-limit, limit, size=n_out))
    return weights, biases


def plain_mlp_forward(weights, biases, x, slope_params, kt):
    """Feedforward pass with one-sided quadratic nodes, explicit loops.

    weights[l] is (n_in, n_out), biases[l] is (n_out,).  Each node applies
    out = m * s - kt * s^2 for s > 0 and out = m * s otherwise, where
    m = r_off*(1 - b/d) + r_on*(b/d).  Returns the activations of every
    layer including the input.
    """
    r_on, r_off, d = slope_params
    acts = [np.asarray(x, dtype=float)]
    for w, b in zip(weights, biases):
        prev = acts[-1]
        n_out = w.shape[1]
        out = np.zeros(n_out)
        for j in range(n_out):
            s = 0.0
            for i in range(w.shape[0]):
                s += w[i, j] * prev[i]
            m = r_off * (1.0 - b[j] / d) + r_on * (b[j] / d)
            if s > 0.0:
                out[j] = m * s - kt * (s * s)
            else:
                out[j] = m * s
        acts.append(out)
    return acts


def plain_mlp_cost(weights, biases, x, t, slope_params, kt):
    out = plain_mlp_forward(weights, biases, x, slope_params, kt)[-1]
    t = np.atleast_1d(np.asarray(t, dtype=float))
    e = 0.0
    for k in range(len(out)):
        diff = t[k] - out[k]
        e += 0.5 * diff * diff
    return e


def ideal_mlp_step(gammas, biases, x, t, eta, slope_params, kt, b_scale=1.0):
    """One online backprop step on the one-sided quadratic net, plain arrays.

    gammas[l] is (n_in, n_out) of synapse variables, each weight being
    b_scale * gamma, and biases[l] is (n_out,); t is every output's
    target.  Local gradients use the frozen pre-update weights.  A
    connection's gamma moves by eta * delta_j * v_i / b_scale; the bias
    of node j moves down its own cost gradient, eta * pull_j * dm/db *
    s_j, since the bias acts through the slope m.  Sums start from their
    first term.  Returns the increments of gammas and biases, and the
    pre-update cost.
    """
    r_on, r_off, d = slope_params
    m_prime = (r_on - r_off) / d
    acts = [np.asarray(x, dtype=float)]
    sums = []
    derivs = []
    for g, b in zip(gammas, biases):
        prev = acts[-1]
        n_out = g.shape[1]
        s_vec = np.zeros(n_out)
        o_vec = np.zeros(n_out)
        dv_vec = np.zeros(n_out)
        for j in range(n_out):
            s = (b_scale * g[0, j]) * prev[0]
            for i in range(1, g.shape[0]):
                s += (b_scale * g[i, j]) * prev[i]
            m = r_off * (1.0 - b[j] / d) + r_on * (b[j] / d)
            drive = s if s > 0.0 else 0.0
            s_vec[j] = s
            o_vec[j] = m * s - kt * (drive * drive)
            dv_vec[j] = m - 2.0 * kt * drive
        sums.append(s_vec)
        acts.append(o_vec)
        derivs.append(dv_vec)

    t = np.broadcast_to(np.asarray(t, dtype=float), acts[-1].shape)
    cost = 0.5 * (t[0] - acts[-1][0]) * (t[0] - acts[-1][0])
    for k in range(1, len(acts[-1])):
        diff = t[k] - acts[-1][k]
        cost += 0.5 * diff * diff

    n_layers = len(gammas)
    pulls = [None] * n_layers
    deltas = [None] * n_layers
    pulls[-1] = t - acts[-1]
    deltas[-1] = (t - acts[-1]) * derivs[-1]
    for l in range(n_layers - 2, -1, -1):
        g_next = gammas[l + 1]
        d_next = deltas[l + 1]
        pv = np.zeros(g_next.shape[0])
        for k in range(g_next.shape[0]):
            s = d_next[0] * (b_scale * g_next[k, 0])
            for j in range(1, g_next.shape[1]):
                s += d_next[j] * (b_scale * g_next[k, j])
            pv[k] = s
        pulls[l] = pv
        deltas[l] = derivs[l] * pv

    inc_g = [np.zeros(np.shape(g)) for g in gammas]
    inc_b = [np.zeros(np.shape(b)) for b in biases]
    for l in range(n_layers):
        for j in range(gammas[l].shape[1]):
            for i in range(gammas[l].shape[0]):
                inc_g[l][i, j] = (eta * deltas[l][j]) * acts[l][i] / b_scale
            inc_b[l][j] = eta * pulls[l][j] * m_prime * sums[l][j]
    return inc_g, inc_b, cost


def clamp_all(arrays, bound):
    """Clamp every entry to +/- bound; returns (clamped copies, entries moved)."""
    out = [np.array([clamp(v, bound) for v in a.ravel()]).reshape(a.shape) for a in arrays]
    return out, sum(int(np.count_nonzero(o != a)) for o, a in zip(out, arrays))


def ideal_mlp_run(gammas0, biases0, eta, xs, ts, epochs, rng, slope_params, kt, bound,
                  b_scale=1.0):
    """Online backprop over epochs of rng.permutation order, plain arrays.

    Loops ideal_mlp_step and clamps every gamma and bias to +/- bound
    after each step, as a burst write followed by the device clamp would.
    Returns the per-epoch summed cost, the final gammas and biases, and
    how many writes the clamp cut short.
    """
    gammas = [np.array(g, dtype=float) for g in gammas0]
    biases = [np.array(b, dtype=float) for b in biases0]
    history = []
    clamps = 0
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite run is compared as it is
        for _ in range(epochs):
            total = 0.0
            for i in rng.permutation(len(xs)):
                inc_g, inc_b, cost = ideal_mlp_step(gammas, biases, xs[i], ts[i], eta,
                                                    slope_params, kt, b_scale)
                gammas, hits_g = clamp_all([g + inc for g, inc in zip(gammas, inc_g)], bound)
                biases, hits_b = clamp_all([b + inc for b, inc in zip(biases, inc_b)], bound)
                clamps += hits_g + hits_b
                total += cost
            history.append(total)
    return np.array(history), gammas, biases, clamps


def central_diff_weight_grads(weights, biases, x, t, slope_params, kt, h=1e-5):
    """dE/dw for every connection weight by central finite differences."""
    grads = []
    for l in range(len(weights)):
        g = np.zeros_like(weights[l])
        for i in range(weights[l].shape[0]):
            for j in range(weights[l].shape[1]):
                w_plus = [w.copy() for w in weights]
                w_minus = [w.copy() for w in weights]
                w_plus[l][i, j] += h
                w_minus[l][i, j] -= h
                e_plus = plain_mlp_cost(w_plus, biases, x, t, slope_params, kt)
                e_minus = plain_mlp_cost(w_minus, biases, x, t, slope_params, kt)
                g[i, j] = (e_plus - e_minus) / (2.0 * h)
        grads.append(g)
    return grads


def central_diff_bias_grads(weights, biases, x, t, slope_params, kt, h=1e-5):
    """dE/db for every node bias by central finite differences."""
    grads = []
    for l in range(len(biases)):
        g = np.zeros_like(biases[l])
        for j in range(len(biases[l])):
            b_plus = [b.copy() for b in biases]
            b_minus = [b.copy() for b in biases]
            b_plus[l][j] += h
            b_minus[l][j] -= h
            e_plus = plain_mlp_cost(weights, b_plus, x, t, slope_params, kt)
            e_minus = plain_mlp_cost(weights, b_minus, x, t, slope_params, kt)
            g[j] = (e_plus - e_minus) / (2.0 * h)
        grads.append(g)
    return grads


def slp_forward(weights, x):
    """Logistic output, broadcasting over any leading axes.

    weights is (..., n + 1) with the bias weight last and x is (..., n);
    the inputs are summed in order, then the bias weight is added, and
    the logistic is scipy.special.expit.
    """
    n = x.shape[-1]
    v = weights[..., 0] * x[..., 0]
    for i in range(1, n):
        v = v + weights[..., i] * x[..., i]
    return expit(v + weights[..., n])


def mlp_forward(gammas, biases, x, params, kt, b_scale):
    """Forward pass of memristor networks, broadcasting over any leading axes.

    gammas[l] is (..., n_in, n_out) of synapse internal variables
    (weight / b_scale), biases[l] is (..., n_out) and x is (..., n_inputs);
    params is a DeviceParams and kt is kappa * tau.  Returns one
    (effective weights, net input, output, activation derivative) tuple
    per layer, the network output last.
    """
    layers = []
    v = x
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite pass is compared as it is
        for g, b in zip(gammas, biases):
            w = b_scale * g
            s = w[..., 0, :] * v[..., 0, None]
            for i in range(1, w.shape[-2]):
                s = s + w[..., i, :] * v[..., i, None]
            m = params.r_off * (1.0 - b / params.d) + params.r_on * (b / params.d)
            drive = np.where(s > 0.0, s, 0.0)
            v = m * s - kt * (drive * drive)
            layers.append((w, s, v, m - 2.0 * kt * drive))
    return layers


def pcg64_row(rng):
    """A generator's PCG64.state as a stream row: state and inc (high, low word), has_uint32, uinteger."""
    state = rng.bit_generator.state
    s, inc = state["state"]["state"], state["state"]["inc"]
    return [s >> 64, s % 2**64, inc >> 64, inc % 2**64, state["has_uint32"], state["uinteger"]]


def numpy_streams(seed, n):
    """seed_streams(seed, n) built by numpy: the rows of default_rng(seed + r) for r < n."""
    return np.array([pcg64_row(np.random.default_rng(seed + r)) for r in range(n)], dtype=np.uint64)


def pairwise_auc(scores, labels):
    """Probability a random positive outscores a random negative, ties at half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    assert len(pos) > 0 and len(neg) > 0
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def sweep_auc_loop(scores, labels):
    """The trapezoid area under the ROC sweep over the distinct scores, from
    the highest down, each rate counted and each trapezoid added in turn."""
    pos = [s for s, t in zip(scores, labels) if t == 1]
    neg = [s for s, t in zip(scores, labels) if t == 0]
    area, tpr0, fpr0 = 0.0, 0.0, 0.0
    for cutoff in sorted(set(scores), reverse=True):
        tpr = sum(s >= cutoff for s in pos) / len(pos)
        fpr = sum(s >= cutoff for s in neg) / len(neg)
        area += 0.5 * (tpr + tpr0) * (fpr - fpr0)
        tpr0, fpr0 = tpr, fpr
    return area


def read_curve_csv(path):
    """A learning-curve CSV back as float arrays (epochs, means, stds)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["epoch", "mean_e_total", "std_e_total"]:
            raise ValueError(f"expected header epoch,mean_e_total,std_e_total, got {header}")
        rows = [[float(v) for v in row] for row in reader]
    epochs, means, stds = np.array(rows, dtype=float).reshape(-1, 3).T
    return epochs, means, stds


def read_roc_csv(path):
    """A ROC CSV back as float arrays (thresholds, tprs, fprs) and its AUC."""
    rows = []
    auc_value = None
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["threshold", "tpr", "fpr"]:
            raise ValueError(f"expected header threshold,tpr,fpr, got {header}")
        for row in reader:
            if row[0] == "auc":
                auc_value = float(row[1])
            else:
                rows.append([float(v) for v in row])
    if auc_value is None:
        raise ValueError("roc file is missing its auc line")
    thresholds, tprs, fprs = np.array(rows, dtype=float).reshape(-1, 3).T
    return thresholds, tprs, fprs, auc_value


TRUTH = {  # the gates' truth tables, written out
    Gate.OR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1},
    Gate.AND: {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 1},
    Gate.XOR: {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0},
}


def per_sample_dataset(gate, n, seed):
    """generate_dataset's draw, each row labelled from TRUTH one at a time,
    packed into float arrays: (xs, ts)."""
    rows = [tuple(b) for b in np.random.default_rng(seed).integers(0, 2, size=(n, 2)).tolist()]
    return np.array(rows, dtype=float), np.array([TRUTH[gate][x] for x in rows], dtype=float)
