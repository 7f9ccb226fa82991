/* The training run of both perceptrons, and the realizations' random
 * streams: numpy's PCG64 seeding, draws and shuffles.  `train.py` calls
 * these through ctypes, and the plain loops of `tests/oracles.py` are their
 * spec: a run repeats their float operations (same operands, same order,
 * no contraction), so it gives their bytes.
 *
 * A run trains R realizations online for `epochs` epochs.  Realizations run
 * in blocks of LANES, the last one ragged: each operation of a sample runs
 * for every lane of the block before the next operation, so the lanes'
 * independent dependency chains overlap in the core instead of one step
 * waiting on the previous one.  A block loads its streams and parameters
 * once.  Each epoch it draws every lane's permutation of the samples from
 * the lane's stream, presents the samples in that order, each through the
 * model's per-sample step (slp_sample or mlp_sample), and writes each
 * lane's summed error to histories[r, e].  At the end it stores parameters
 * and streams back.  A parameter is written by adding its increment, then
 * clamping to [-bound, bound].
 *
 * The SLP writes each weight with one pulse, so an increment with |inc| >=
 * window_a is a window violation: the weight is not written, and the run
 * reports the first violation in the order (epoch, sample, realization,
 * weight) in where[0..3], with its increment in *inc.  A block stops after
 * the sample of the first violation found so far, since no later one can
 * come first.  The MLP writes bursts of pulses, which land in full.
 */
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define LANES 8

/* A realization's PCG64 stream is a row of STREAM words holding the fields
 * of numpy's PCG64.state: the 128-bit state and increment, each as its high
 * then its low word, then has_uint32 and uinteger, the buffered half of an
 * output that a 32-bit draw left. */
#define STREAM 6

typedef unsigned __int128 u128;
typedef struct {
    u128 state, inc;
    uint64_t has_uint32, uinteger;
} pcg64;

#define PCG_MULT ((u128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

static pcg64 load(const uint64_t *row)
{
    return (pcg64){(u128)row[0] << 64 | row[1], (u128)row[2] << 64 | row[3], row[4], row[5]};
}

static void store(uint64_t *row, const pcg64 *g)
{
    row[0] = (uint64_t)(g->state >> 64);
    row[1] = (uint64_t)g->state;
    row[2] = (uint64_t)(g->inc >> 64);
    row[3] = (uint64_t)g->inc;
    row[4] = g->has_uint32;
    row[5] = g->uinteger;
}

/* pcg64_random_r: step the LCG, then the XSL RR output of the new state. */
static uint64_t next64(pcg64 *g)
{
    g->state = g->state * PCG_MULT + g->inc;
    uint64_t x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    unsigned rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* pcg64_next32: the low half of an output, keeping the high half for the
 * next call. */
static uint32_t next32(pcg64 *g)
{
    if (g->has_uint32) {
        g->has_uint32 = 0;
        return (uint32_t)g->uinteger;
    }
    uint64_t next = next64(g);
    g->has_uint32 = 1;
    g->uinteger = next >> 32;
    return (uint32_t)next;
}

/* SeedSequence's hash and mixing functions (numpy/random/bit_generator.pyx). */
#define POOL 4
#define INIT_A 0x43b0d7e5u
#define MULT_A 0x931e8875u
#define INIT_B 0x8b51f9ddu
#define MULT_B 0x58f38dedu

static uint32_t hashmix(uint32_t value, uint32_t *hash)
{
    value ^= *hash;
    *hash *= MULT_A;
    value *= *hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Row r of streams becomes the state of np.random.default_rng(seed + r):
 * SeedSequence(seed + r).generate_state(4, uint64), then PCG64's seeding.
 * words holds the base seed as n_words little-endian uint32 words, room
 * enough for seed + R; one is added to it, with carry, after each row. */
void seed_streams(int64_t R, int64_t n_words, uint32_t *words, uint64_t *streams)
{
    for (int64_t r = 0; r < R; r++) {
        int64_t n = n_words; /* the entropy: the seed's words, high zero words dropped */
        while (n > 1 && words[n - 1] == 0)
            n--;
        uint32_t pool[POOL], hash = INIT_A;
        for (int i = 0; i < POOL; i++)
            pool[i] = hashmix(i < n ? words[i] : 0, &hash);
        for (int src = 0; src < POOL; src++)
            for (int dst = 0; dst < POOL; dst++)
                if (src != dst)
                    pool[dst] = mix(pool[dst], hashmix(pool[src], &hash));
        for (int64_t src = POOL; src < n; src++)
            for (int dst = 0; dst < POOL; dst++)
                pool[dst] = mix(pool[dst], hashmix(words[src], &hash));
        uint64_t seed[4];
        hash = INIT_B;
        for (int i = 0; i < 8; i++) {
            uint32_t value = pool[i % POOL] ^ hash;
            hash *= MULT_B;
            value *= hash;
            value ^= value >> 16;
            seed[i / 2] = i % 2 ? seed[i / 2] | (uint64_t)value << 32 : value;
        }
        /* pcg64_set_seed, then pcg_setseq_128_srandom_r */
        pcg64 g = {0, ((u128)seed[2] << 64 | seed[3]) << 1 | 1, 0, 0};
        g.state = g.state * PCG_MULT + g.inc;
        g.state += (u128)seed[0] << 64 | seed[1];
        g.state = g.state * PCG_MULT + g.inc;
        store(streams + r * STREAM, &g);
        for (int64_t i = 0; i < n_words && ++words[i] == 0; i++)
            ;
    }
}

/* Row r of out becomes stream r's rng.random(k): next_double's 53 bits. */
void random_rows(int64_t R, int64_t k, uint64_t *streams, double *out)
{
    for (int64_t r = 0; r < R; r++) {
        pcg64 g = load(streams + r * STREAM);
        for (int64_t i = 0; i < k; i++)
            out[r * k + i] = (double)(next64(&g) >> 11) * (1.0 / 9007199254740992.0);
        store(streams + r * STREAM, &g);
    }
}

/* numpy's random_interval for max >= 1: masked rejection on [0, max]. */
static uint64_t random_interval(pcg64 *g, uint64_t max)
{
    uint64_t mask = max, value;
    for (int s = 1; s < 64; s <<= 1)
        mask |= mask >> s;
    if (max <= 0xffffffffULL)
        while ((value = (next32(g) & mask)) > max)
            ;
    else
        while ((value = (next64(g) & mask)) > max)
            ;
    return value;
}


/* row becomes g's rng.permutation(n): the Fisher-Yates of numpy's
 * Generator.shuffle, with the same draws. */
static void permutation(pcg64 *g, int64_t n, int64_t *row)
{
    for (int64_t i = 0; i < n; i++)
        row[i] = i;
    for (int64_t i = n - 1; i > 0; i--) {
        int64_t j = (int64_t)random_interval(g, (uint64_t)i), swap = row[i];
        row[i] = row[j];
        row[j] = swap;
    }
}

/* Row r of perm becomes stream r's rng.permutation(n). */
void shuffle_rows(int64_t R, int64_t n, uint64_t *streams, int64_t *perm)
{
    for (int64_t r = 0; r < R; r++) {
        pcg64 g = load(streams + r * STREAM);
        permutation(&g, n, perm + r * n);
        store(streams + r * STREAM, &g);
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

/* A run's arguments (see run) and the sizes of its scratch, which holds for
 * each lane its permutation, the sample's inputs, the parameters in the
 * order of p (`weights` SLP weights or MLP gammas, then `nodes` MLP node
 * biases), then the MLP's work space (see mlp_sample).  The helpers take it
 * by value, so that no store through a pointer can alias a field. */
typedef struct {
    int64_t R, n, n_in, epochs, L, weights, nodes, widest;
    const double *xs, *ts;
    const int64_t *sizes;
    uint64_t *streams;
    double **p, *histories, *inc, *scratch;
    int64_t *where;
    double bound, window_a, eta, b_scale, kt, m_prime, r_off, r_on, d;
} args;

/* Helpers inlined into each block, so that a constant lane count gives lane
 * loops of a known trip count: one lane costs what the plain loop costs,
 * and a full block's loops can use the vector unit, lane by lane. */
#define INLINE static inline __attribute__((always_inline))

/* The streams of the nb lanes from r0 to g, and rows r0 .. r0 + nb - 1 of
 * each array of p to the lane-major copy q (element e of lane b at q[e *
 * LANES + b], one array after another), if in; else back from g and q.
 * With L = 0 (the SLP) p holds one (R, n_in + 1) array, else L (R,
 * sizes[l] * sizes[l + 1]) then L (R, sizes[l + 1]) arrays. */
INLINE void lanes(int64_t nb, int64_t r0, int64_t L, args c, pcg64 *g, double *q, int in)
{
    for (int64_t b = 0; b < nb; b++)
        if (in)
            g[b] = load(c.streams + (r0 + b) * STREAM);
        else
            store(c.streams + (r0 + b) * STREAM, g + b);
    for (int64_t a = 0; a < (L ? 2 * L : 1); a++) {
        int64_t size = !L ? c.n_in + 1 : a < L ? c.sizes[a] * c.sizes[a + 1] : c.sizes[a - L + 1];
        for (int64_t e = 0; e < size; e++)
            for (int64_t b = 0; b < nb; b++) {
                double *row = c.p[a] + (r0 + b) * size + e;
                if (in)
                    q[e * LANES + b] = *row;
                else
                    *row = q[e * LANES + b];
            }
        q += size * LANES;
    }
}

/* Adds inc[b] to q[b], then clamps, for each b < n: in a block, the lanes
 * of one parameter.  This is a burst write, which lands in full. */
INLINE void burst(int64_t n, double *q, const double *inc, double bound)
{
    for (int64_t b = 0; b < n; b++)
        q[b] = clamp(q[b] + inc[b], bound);
}

/* burst, as single pulses: if an increment has |inc| >= window_a, nothing
 * is written and the call returns the first such b; else it returns -1. */
INLINE int64_t apply(int64_t n, double *q, const double *inc, double bound, double window_a)
{
    int over = 0;
    for (int64_t b = 0; b < n; b++)
        over |= fabs(inc[b]) >= window_a;
    if (over) {
        int64_t b = 0;
        while (!(fabs(inc[b]) >= window_a))
            b++;
        return b;
    }
    burst(n, q, inc, bound);
    return -1;
}

/* apply, on n variables at once: the SLP's write, exported for its tests. */
int64_t write_pulses(int64_t n, double *q, const double *inc, double bound, double window_a)
{
    return apply(n, q, inc, bound, window_a);
}

/* apply to the nb lanes from r0 of weight i, at q, in sample k of epoch e.
 * A violation's key (e, k, realization, i) goes to c.where and its
 * increment to *c.inc if it comes before the one kept. */
INLINE void put(int64_t nb, int64_t r0, int64_t e, int64_t k, int64_t i, double *q,
                const double *inc, args c)
{
    int64_t hit = apply(nb, q, inc, c.bound, c.window_a), key[4] = {e, k, r0 + hit, i};
    for (int j = 0; hit >= 0 && j < 4 && key[j] <= c.where[j]; j++)
        if (key[j] < c.where[j]) {
            memcpy(c.where, key, sizeof key);
            *c.inc = inc[hit];
            return;
        }
}

/* The steps train the nb lanes from r0 on sample k of epoch e, the inputs x
 * and the target t, and add each lane's error to total[b].  The SLP's is the
 * delta rule: w is the weights, the bias weight last. */
INLINE void slp_sample(int64_t nb, int64_t r0, int64_t e, int64_t k, double *w, const double *x,
                       const double *t, double *total, args c)
{
    int64_t n_in = c.n_in;
    double out[LANES], base[LANES], inc[LANES];
    for (int64_t b = 0; b < nb; b++)
        out[b] = w[b] * x[b];
    for (int64_t i = 1; i < n_in; i++)
        for (int64_t b = 0; b < nb; b++)
            out[b] = out[b] + w[i * LANES + b] * x[i * LANES + b];
    for (int64_t b = 0; b < nb; b++)
        out[b] = 1.0 / (1.0 + exp(-(out[b] + w[n_in * LANES + b])));
    for (int64_t b = 0; b < nb; b++) {
        double diff = t[b] - out[b];
        base[b] = (c.eta * diff) * (out[b] * (1.0 - out[b]));
        total[b] += (0.5 * diff) * diff;
    }
    for (int64_t i = 0; i < n_in; i++) {
        for (int64_t b = 0; b < nb; b++)
            inc[b] = base[b] * x[i * LANES + b];
        put(nb, r0, e, k, i, w + i * LANES, inc, c);
    }
    put(nb, r0, e, k, n_in, w + n_in * LANES, base, c);
}

/* Backpropagation: gam is the L layers' synapse gammas, then their node
 * biases; after them come each layer's net input, output and activation
 * derivative, then three vectors of the widest layer for the backward pass. */
INLINE void mlp_sample(int64_t nb, double *gam, const double *x, const double *t, double *total,
                       args c)
{
    const int64_t L = c.L, *sizes = c.sizes;
    const double eta = c.eta, b_scale = c.b_scale, kt = c.kt, r_off = c.r_off, r_on = c.r_on, d = c.d;
    double *bias = gam + c.weights * LANES, *s = bias + c.nodes * LANES;
    double *up = s + 3 * c.nodes * LANES, *delta = up + c.widest * LANES, *next = delta + c.widest * LANES;
    double acc[LANES], inc[LANES];
    double err[LANES] = {0.0}; /* set at j = 0; the zeros only quiet -Wmaybe-uninitialized */
    const double *in = x;
    for (int64_t l = 0; l < L; l++) {
        int64_t ni = sizes[l], no = sizes[l + 1];
        double *v = s + no * LANES, *dv = v + no * LANES;
        for (int64_t j = 0; j < no; j++) {
            for (int64_t b = 0; b < nb; b++)
                acc[b] = (b_scale * gam[j * LANES + b]) * in[b];
            for (int64_t i = 1; i < ni; i++)
                for (int64_t b = 0; b < nb; b++)
                    acc[b] = acc[b] + (b_scale * gam[(i * no + j) * LANES + b]) * in[i * LANES + b];
            for (int64_t b = 0; b < nb; b++) {
                double bj = bias[j * LANES + b];
                double m = r_off * (1.0 - bj / d) + r_on * (bj / d);
                double drive = acc[b] > 0.0 ? acc[b] : 0.0;
                s[j * LANES + b] = acc[b];
                v[j * LANES + b] = m * acc[b] - kt * (drive * drive);
                dv[j * LANES + b] = m - (2.0 * kt) * drive;
            }
        }
        in = v;
        gam += ni * no * LANES;
        bias += no * LANES;
        s = dv + no * LANES;
    }
    /* in is the network output; up is the pull on a layer's outputs, delta
     * the pull on its net inputs */
    int64_t nout = sizes[L];
    for (int64_t j = 0; j < nout; j++)
        for (int64_t b = 0; b < nb; b++) {
            double diff = t[b] - in[j * LANES + b], sq = (0.5 * diff) * diff;
            err[b] = j ? err[b] + sq : sq;
            up[j * LANES + b] = diff;
            delta[j * LANES + b] = diff * in[(nout + j) * LANES + b];
        }
    for (int64_t b = 0; b < nb; b++)
        total[b] += err[b];
    for (int64_t l = L - 1; l >= 0; l--) {
        int64_t ni = sizes[l], no = sizes[l + 1];
        gam -= ni * no * LANES;
        bias -= no * LANES;
        s -= 3 * no * LANES;
        const double *prev = l ? s - 2 * ni * LANES : x;
        if (l) /* with the weights before this step's update */
            for (int64_t i = 0; i < ni; i++) {
                for (int64_t b = 0; b < nb; b++)
                    acc[b] = delta[b] * (b_scale * gam[i * no * LANES + b]);
                for (int64_t j = 1; j < no; j++)
                    for (int64_t b = 0; b < nb; b++)
                        acc[b] = acc[b] + delta[j * LANES + b] * (b_scale * gam[(i * no + j) * LANES + b]);
                for (int64_t b = 0; b < nb; b++)
                    next[i * LANES + b] = acc[b];
            }
        /* the increments of a sample do not depend on its writes */
        for (int64_t i = 0; i < ni; i++)
            for (int64_t j = 0; j < no; j++) {
                for (int64_t b = 0; b < nb; b++)
                    inc[b] = ((eta * delta[j * LANES + b]) * prev[i * LANES + b]) / b_scale;
                burst(nb, gam + (i * no + j) * LANES, inc, c.bound);
            }
        for (int64_t j = 0; j < no; j++) {
            for (int64_t b = 0; b < nb; b++)
                inc[b] = ((eta * up[j * LANES + b]) * c.m_prime) * s[j * LANES + b];
            burst(nb, bias + j * LANES, inc, c.bound);
        }
        if (l) {
            double *spare = up;
            up = next;
            next = spare;
            for (int64_t i = 0; i < ni; i++)
                for (int64_t b = 0; b < nb; b++)
                    delta[i * LANES + b] = s[(i - ni) * LANES + b] * up[i * LANES + b];
        }
    }
}

/* Trains the block of nb lanes from realization r0: the SLP if L = 0, else
 * the MLP of c.L layers. */
INLINE void block(int64_t nb, int64_t r0, int64_t L, args c)
{
    int64_t n = c.n, n_in = c.n_in, *perm = (int64_t *)c.scratch;
    double *x = c.scratch + n * LANES, *q = x + n_in * LANES, t[LANES], total[LANES];
    pcg64 g[LANES];
    lanes(nb, r0, L, c, g, q, 1);
    for (int64_t e = 0; e < c.epochs; e++) {
        for (int64_t b = 0; b < nb; b++) {
            permutation(g + b, n, perm + b * n);
            total[b] = 0.0;
        }
        for (int64_t k = 0; k < n; k++) {
            for (int64_t b = 0; b < nb; b++) {
                int64_t idx = perm[b * n + k];
                t[b] = c.ts[idx];
                for (int64_t i = 0; i < n_in; i++)
                    x[i * LANES + b] = c.xs[idx * n_in + i];
            }
            if (L)
                mlp_sample(nb, q, x, t, total, c);
            else
                slp_sample(nb, r0, e, k, q, x, t, total, c);
            if (c.where[0] < e || (c.where[0] == e && c.where[1] <= k))
                goto done; /* no later violation can come first */
        }
        for (int64_t b = 0; b < nb; b++)
            c.histories[(r0 + b) * c.epochs + e] = total[b];
    }
done:
    lanes(nb, r0, L, c, g, q, 0);
}

/* The run's blocks: full ones of LANES lanes, then the rest, a single
 * realization apart so that R = 1 pays for no idle lanes. */
INLINE void blocks(int64_t L, args c)
{
    for (int64_t r0 = 0; r0 < c.R; r0 += LANES)
        c.R - r0 >= LANES ? block(LANES, r0, L, c)
                          : c.R - r0 == 1 ? block(1, r0, L, c) : block(c.R - r0, r0, L, c);
}

/* The MLP's blocks, in a function apart from the SLP's: sharing one, gcc 12
 * at -O2 kept more values of the SLP's in registers, saved and restored
 * around every exp call, and its blocks of eight lanes ran 6-8% slower. */
__attribute__((noinline)) static void mlp_blocks(args c)
{
    blocks(c.L, c);
}

/* Trains the SLP if L = 0, which alone uses window_a, where and inc, else
 * the MLP of L layers of sizes[0..L], which alone uses b_scale to d (see
 * mlp_sample).  Allocates the blocks' scratch for the run; returns 2 if that
 * fails, 1 after a window violation, else 0. */
int run(int64_t R, int64_t n, int64_t n_in, const double *xs, const double *ts, int64_t epochs,
        uint64_t *streams, double **p, double *histories, double bound, double window_a,
        int64_t *where, double *inc, double eta, int64_t L, const int64_t *sizes, double b_scale,
        double kt, double m_prime, double r_off, double r_on, double d)
{
    args c = {R, n, n_in, epochs, L, L ? 0 : n_in + 1, 0, 0, xs, ts, sizes, streams, p,
              histories, inc, NULL, where, bound, window_a, eta, b_scale, kt, m_prime, r_off,
              r_on, d};
    for (int64_t l = 0; l < L; l++) {
        c.weights += sizes[l] * sizes[l + 1];
        c.nodes += sizes[l + 1];
        c.widest = sizes[l + 1] > c.widest ? sizes[l + 1] : c.widest;
    }
    /* doubles per lane, the permutation's int64s included */
    int64_t width = n + n_in + c.weights + 4 * c.nodes + 3 * c.widest;
    c.scratch = malloc((size_t)(width * LANES) * sizeof *c.scratch);
    if (c.scratch == NULL)
        return 2;
    where[0] = INT64_MAX;
    if (L)
        mlp_blocks(c);
    else
        blocks(0, c);
    free(c.scratch);
    return where[0] != INT64_MAX;
}
