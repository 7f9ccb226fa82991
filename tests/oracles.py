"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately dumb: explicit loops, naive formulas,
no reuse of package internals beyond parameter containers.  Slow is fine.
"""

from __future__ import annotations

import numpy as np


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


def naive_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def clamp(value, bound):
    if value < -bound:
        return -bound
    if value > bound:
        return bound
    return value


def ideal_slp_run(w0, eta, xs, ts, epochs, rng, record_weights=False,
                  bound=np.inf, sigmoid=naive_sigmoid):
    """Textbook online delta rule on a logistic unit, no device in sight.

    w0 has the bias weight last.  Every weight is clamped to +/- bound
    after its update.  With sigmoid=scipy.special.expit the float
    operations are the trainer's own, so results agree bit for bit; the
    naive 1/(1+exp(-z)) differs from expit in the last bit on a few
    percent of inputs.  Returns per-epoch summed cost and, optionally,
    the weight vector after every sample.
    """
    w = np.array(w0, dtype=float)
    n = xs.shape[1]
    history = []
    trail = []
    for _ in range(epochs):
        order = rng.permutation(len(xs))
        total = 0.0
        for i in order:
            s = 0.0
            for j in range(n):
                s += w[j] * xs[i, j]
            out = sigmoid(s + w[n])
            diff = ts[i] - out
            total += 0.5 * diff * diff
            grad = eta * diff * (out * (1.0 - out))
            for j in range(n):
                w[j] = clamp(w[j] + grad * xs[i, j], bound)
            w[n] = clamp(w[n] + grad, bound)
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


def ideal_mlp_step(weights, biases, x, t, eta, slope_params, kt):
    """One online backprop step on the one-sided quadratic net, plain arrays.

    Local gradients use the frozen pre-update weights.  Connections move
    by eta * delta_j * v_i; the bias of node j moves down its own cost
    gradient, eta * pull_j * dm/db * s_j, since the bias acts through the
    slope m.  Returns the updated (weights, biases) copies and the
    pre-update cost.
    """
    r_on, r_off, d = slope_params
    m_prime = (r_on - r_off) / d
    x = np.asarray(x, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    acts = [x]
    sums = []
    derivs = []
    for w, b in zip(weights, biases):
        prev = acts[-1]
        n_out = w.shape[1]
        s_vec = np.zeros(n_out)
        o_vec = np.zeros(n_out)
        dv_vec = np.zeros(n_out)
        for j in range(n_out):
            s = 0.0
            for i in range(w.shape[0]):
                s += w[i, j] * prev[i]
            m = r_off * (1.0 - b[j] / d) + r_on * (b[j] / d)
            s_vec[j] = s
            if s > 0.0:
                o_vec[j] = m * s - kt * (s * s)
                dv_vec[j] = m - 2.0 * kt * s
            else:
                o_vec[j] = m * s
                dv_vec[j] = m
        sums.append(s_vec)
        acts.append(o_vec)
        derivs.append(dv_vec)

    cost = 0.0
    for k in range(len(acts[-1])):
        diff = t[k] - acts[-1][k]
        cost += 0.5 * diff * diff

    n_layers = len(weights)
    pulls = [None] * n_layers
    deltas = [None] * n_layers
    pulls[-1] = t - acts[-1]
    deltas[-1] = (t - acts[-1]) * derivs[-1]
    for l in range(n_layers - 2, -1, -1):
        w_next = weights[l + 1]
        d_next = deltas[l + 1]
        pv = np.zeros(w_next.shape[0])
        for k in range(w_next.shape[0]):
            s = 0.0
            for j in range(w_next.shape[1]):
                s += d_next[j] * w_next[k, j]
            pv[k] = s
        pulls[l] = pv
        deltas[l] = derivs[l] * pv

    new_w = [w.copy() for w in weights]
    new_b = [b.copy() for b in biases]
    for l in range(n_layers):
        for j in range(weights[l].shape[1]):
            for i in range(weights[l].shape[0]):
                new_w[l][i, j] += (eta * deltas[l][j]) * acts[l][i]
            new_b[l][j] += eta * pulls[l][j] * m_prime * sums[l][j]
    return new_w, new_b, cost


def clamp_all(arrays, bound):
    """Clamp every entry to +/- bound; returns (clamped copies, entries moved)."""
    out = [np.array([clamp(v, bound) for v in a.ravel()]).reshape(a.shape) for a in arrays]
    return out, sum(int(np.count_nonzero(o != a)) for o, a in zip(out, arrays))


def ideal_mlp_run(weights0, biases0, eta, xs, ts, epochs, rng, slope_params, kt, bound):
    """Online backprop over epochs of rng.permutation order, plain arrays.

    Loops ideal_mlp_step and clamps every weight and bias to +/- bound
    after each step, as a burst write followed by the device clamp would.
    Returns the per-epoch summed cost, the final weights and biases, and
    how many writes the clamp cut short.
    """
    weights, biases = list(weights0), list(biases0)
    history = []
    clamps = 0
    for _ in range(epochs):
        total = 0.0
        for i in rng.permutation(len(xs)):
            weights, biases, cost = ideal_mlp_step(
                weights, biases, xs[i], [ts[i]], eta, slope_params, kt
            )
            weights, hits_w = clamp_all(weights, bound)
            biases, hits_b = clamp_all(biases, bound)
            clamps += hits_w + hits_b
            total += cost
        history.append(total)
    return np.array(history), weights, biases, clamps


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
