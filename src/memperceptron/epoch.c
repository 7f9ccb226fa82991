/* One training epoch of each model, and the epoch's shuffles, compiled;
 * `train.py` calls these through ctypes.
 *
 * Each epoch function replays, for every realization in turn, the samples
 * in its row of `perm` with exactly the float operations of the numpy steps
 * in `slp.py` and `mlp.py` (same operands, same order, no contraction), so
 * both engines produce the same bytes.  Parameters are updated in place:
 * add the increment, then clamp to [-bound, bound].  The per-realization
 * error summed over the epoch goes to `totals`.
 *
 * In single write mode an increment with |inc| >= window_a stops the
 * epoch and the function returns 1; the caller restores the parameters
 * and replays the epoch in numpy, which raises or finishes it.
 */
#include <math.h>
#include <stdint.h>

/* numpy's public bitgen_t (numpy/random/bitgen.h); calling its functions
 * advances the Python generator's own state, buffered halves included. */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

/* numpy's random_interval for max >= 1: masked rejection on [0, max]. */
static uint64_t random_interval(bitgen_t *g, uint64_t max)
{
    uint64_t mask = max, value;
    for (int s = 1; s < 64; s <<= 1)
        mask |= mask >> s;
    if (max <= 0xffffffffULL)
        while ((value = (g->next_uint32(g->state) & mask)) > max)
            ;
    else
        while ((value = (g->next_uint64(g->state) & mask)) > max)
            ;
    return value;
}

/* Row r of perm becomes gens[r]'s rng.permutation(n): the Fisher-Yates of
 * numpy's Generator.shuffle, with the same draws. */
void shuffle_rows(int64_t R, int64_t n, bitgen_t **gens, int64_t *perm)
{
    for (int64_t r = 0; r < R; r++) {
        int64_t *row = perm + r * n;
        for (int64_t i = 0; i < n; i++)
            row[i] = i;
        for (int64_t i = n - 1; i > 0; i--) {
            int64_t j = (int64_t)random_interval(gens[r], (uint64_t)i), swap = row[i];
            row[i] = row[j];
            row[j] = swap;
        }
    }
}

/* np.clip(x, -b, b): the lower bound first, then the upper, a tie keeping x.
 * A NaN in x or b comes out NaN (fmin/fmax would drop it) and +/-inf clamps. */
static double clamp(double x, double b)
{
    if (isnan(b))
        return b;
    x = x < -b ? -b : x;
    return x > b ? b : x;
}

static int apply(double *p, double inc, double bound, double window_a, int64_t single)
{
    if (single && fabs(inc) >= window_a)
        return 1;
    *p = clamp(*p + inc, bound);
    return 0;
}

/* p[0] is (R, n_in + 1) weights, the bias weight last. */
int slp_epoch(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts,
              const int64_t *perm, double **p, double *totals, double bound, double window_a,
              int64_t single, double eta)
{
    for (int64_t r = 0; r < R; r++) {
        double *w = p[0] + r * (n_in + 1), total = 0.0;
        for (int64_t k = 0; k < n; k++) {
            int64_t idx = perm[r * n + k];
            const double *x = xs + idx * n_in;
            double v = w[0] * x[0];
            for (int64_t i = 1; i < n_in; i++)
                v = v + w[i] * x[i];
            double out = 1.0 / (1.0 + exp(-(v + w[n_in])));
            double diff = ts[idx] - out;
            double base = (eta * diff) * (out * (1.0 - out));
            total += (0.5 * diff) * diff;
            for (int64_t i = 0; i < n_in; i++)
                if (apply(&w[i], base * x[i], bound, window_a, single))
                    return 1;
            if (apply(&w[n_in], base, bound, window_a, single))
                return 1;
        }
        totals[r] = total;
    }
    return 0;
}

/* p[l] is (R, sizes[l], sizes[l + 1]) synapse gammas and p[L + l] is
 * (R, sizes[l + 1]) node biases.  scratch holds 3 * sum(sizes[1:]) +
 * 3 * max(sizes) doubles: each layer's net input, output and activation
 * derivative, then three vectors for the backward pass. */
int mlp_epoch(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts,
              const int64_t *perm, double **p, double *totals, double bound, double window_a,
              int64_t single, double eta, int64_t L, const int64_t *sizes, double *scratch,
              double b_scale, double kt, double m_prime, double r_off, double r_on, double d)
{
    int64_t fwd = 0, widest = 0;
    for (int64_t l = 0; l <= L; l++) {
        fwd += l ? 3 * sizes[l] : 0;
        widest = sizes[l] > widest ? sizes[l] : widest;
    }
    for (int64_t r = 0; r < R; r++) {
        double total = 0.0;
        for (int64_t k = 0; k < n; k++) {
            int64_t idx = perm[r * n + k];
            const double *in = xs + idx * n_in;
            double *layer = scratch;
            for (int64_t l = 0; l < L; l++) {
                int64_t ni = sizes[l], no = sizes[l + 1];
                const double *g = p[l] + r * ni * no, *b = p[L + l] + r * no;
                double *s = layer, *v = layer + no, *dv = layer + 2 * no;
                for (int64_t j = 0; j < no; j++) {
                    double acc = (b_scale * g[j]) * in[0];
                    for (int64_t i = 1; i < ni; i++)
                        acc = acc + (b_scale * g[i * no + j]) * in[i];
                    double m = r_off * (1.0 - b[j] / d) + r_on * (b[j] / d);
                    double drive = acc > 0.0 ? acc : 0.0;
                    s[j] = acc;
                    v[j] = m * acc - kt * (drive * drive);
                    dv[j] = m - (2.0 * kt) * drive;
                }
                in = v;
                layer += 3 * no;
            }
            /* in is the network output; upstream is the pull on a layer's
             * outputs, delta the pull on its net inputs */
            double *up = scratch + fwd, *delta = up + widest, *next = delta + widest;
            int64_t nout = sizes[L];
            const double *dv_out = in + nout;
            double err = 0.0;
            for (int64_t j = 0; j < nout; j++) {
                double diff = ts[idx] - in[j], sq = (0.5 * diff) * diff;
                err = j ? err + sq : sq;
                up[j] = diff;
                delta[j] = diff * dv_out[j];
            }
            total += err;
            for (int64_t l = L - 1; l >= 0; l--) {
                int64_t ni = sizes[l], no = sizes[l + 1];
                double *g = p[l] + r * ni * no, *b = p[L + l] + r * no;
                layer -= 3 * no;
                const double *s = layer;
                const double *prev = l ? layer - 2 * ni : xs + idx * n_in;
                if (l) /* with the weights before this step's update */
                    for (int64_t i = 0; i < ni; i++) {
                        double acc = delta[0] * (b_scale * g[i * no]);
                        for (int64_t j = 1; j < no; j++)
                            acc = acc + delta[j] * (b_scale * g[i * no + j]);
                        next[i] = acc;
                    }
                for (int64_t i = 0; i < ni; i++)
                    for (int64_t j = 0; j < no; j++)
                        if (apply(&g[i * no + j], ((eta * delta[j]) * prev[i]) / b_scale,
                                  bound, window_a, single))
                            return 1;
                for (int64_t j = 0; j < no; j++)
                    if (apply(&b[j], ((eta * up[j]) * m_prime) * s[j], bound, window_a, single))
                        return 1;
                if (l) {
                    const double *dv_prev = layer - ni;
                    double *spare = up;
                    up = next;
                    next = spare;
                    for (int64_t i = 0; i < ni; i++)
                        delta[i] = dv_prev[i] * up[i];
                }
            }
        }
        totals[r] = total;
    }
    return 0;
}
