/* The closed loop's per-sample work, compiled: ``engine._LoopContext.rhs``
 * with ``_resolve``, the switches, the laws and the disturbance, ``step``'s
 * RK4 combine, renormalization and state check, ``record``'s logged row
 * and ``engine._RunStats.add``, which folds each sample into the run's
 * statistics record.  The disturbance is a function of the time alone, so
 * where the Python code evaluates it in each of a step's four stages, this
 * code reads it from a table of the stage times of a run's time grid,
 * which ``slewguard_disturbance`` fills: stages 2 and 3 share ``t + h``,
 * and stage 4 shares ``(k + 1) dt`` with the next sample's stage 1.
 * ``_kernel.py`` keeps the most recent such table, read by every run of
 * its ``dt`` and length.
 *
 * Every expression repeats the Python one, operation for operation and in
 * the same order, so each result is the same double: the two are tied
 * together bit for bit by the tests.  That needs IEEE doubles without
 * contraction or reassociation (``-ffp-contract=off -fno-fast-math``) and
 * the same libm the interpreter's ``math`` module calls.  ``pow``, ``sin``
 * and ``cos`` are called through volatile pointers, so the compiler can
 * neither fold ``pow(x, 2.0)`` into ``x * x`` nor merge a sine and a cosine
 * of one argument into ``sincos``; Python's ``x ** 2`` calls ``pow``.
 * ``math.degrees`` multiplies by a constant and ``log(2)`` is a constant of
 * ``envelope``, so both come from Python with the scenario constants.  The
 * layouts shared with Python are stated there once and come as ``-D``
 * definitions from ``_kernel.py``: ``P_*`` and ``C_*`` (``CONSTANTS`` and
 * ``CONE``), ``S_*`` (``engine._S_*``), ``ROW_WIDTH`` (``engine._columns``),
 * and so does the disturbance frequency ``DIST_OMEGA``
 * (``engine._DIST_OMEGA``), as an exact hexadecimal literal.
 *
 * Where the Python code would raise (an abort of the run, a division by
 * zero, a square root of a negative number, ``** 2`` overflowing), this
 * code stops before the sample concerned, with the statistics record as it
 * was, and reports how many samples it completed.  The caller hands that
 * sample and the rest of the run to the Python code, which raises, so no
 * abort is raised or worded here.
 *
 * ``slewguard_csv`` at the end formats rows of the run's log as the text
 * of ``trajectory.csv``, each value as Python's ``'%.17g' % v`` writes it.
 */

#include <math.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

/* The stage quantities of ``rhs``, ``16 + n_cones`` doubles: r_b, x_e,
 * eps, omega_s, omega_v, the command, e2, u and the cone cosines. */
enum {
    ST_RB = 0, ST_XE = 3, ST_EPS = 4, ST_S = 5, ST_V = 6, ST_VCMD = 7,
    ST_E2 = 10, ST_U = 13, ST_BETAS = 16
};

static double (*volatile pow_fn)(double, double) = pow;
static double (*volatile sin_fn)(double) = sin;
static double (*volatile cos_fn)(double) = cos;

/* The Python operations that can raise, flagging ``*err`` where they do. */
static double div_(double a, double b, int *err)
{
    if (b == 0.0)
        *err = 1;
    return a / b;
}

static double sqrt_(double x, int *err)
{
    if (x < 0.0)
        *err = 1;
    return sqrt(x);
}

static double square(double x, int *err)
{
    /* float_pow: a negative base is raised as its magnitude, and a finite
     * base whose power overflows raises OverflowError */
    double r = pow_fn(fabs(x), 2.0);
    if (isinf(r) && isfinite(x))
        *err = 1;
    return r;
}

static double trig(double (*f)(double), double x, int *err)
{
    if (isinf(x))
        *err = 1;
    return f(x);
}

/* potential.bridge */
static double bridge(const double *shape, double guard, double beta,
                     double scale, int *err)
{
    double lo = shape[0], hi = shape[1], mid = shape[2], k = shape[3];
    double root, arg;
    if (beta < lo + guard)
        return 0.0;
    if (beta > hi - guard)
        return scale;
    root = sqrt_((beta - lo) * (hi - beta), err);
    arg = div_(k * (beta - mid), root, err);
    return 0.5 * scale * (tanh(arg) + 1.0);
}

/* potential.bridge_grad */
static double bridge_grad(const double *shape, double guard, double beta,
                          double scale, int *err)
{
    double lo = shape[0], hi = shape[1], mid = shape[2], k = shape[3];
    double d, root, arg, darg, e, sech;
    if (beta < lo + guard || beta > hi - guard)
        return 0.0;
    d = (beta - lo) * (hi - beta);
    root = sqrt_(d, err);
    arg = div_(k * (beta - mid), root, err);
    darg = div_(k * (d - 0.5 * (beta - mid) * (lo + hi - 2.0 * beta)),
                d * root, err);
    e = exp(-fabs(arg));
    sech = div_(2.0 * e, 1.0 + e * e, err);
    return 0.5 * scale * sech * sech * darg;
}

/* engine.disturbance_torque at the stage times of a run of steps of
 * ``dt``: entries ``from`` to ``to - 1`` into ``out``, 3 doubles each,
 * entry ``from`` first.  Entry j is at (j / 2) dt, plus dt / 2 where j is
 * odd, so sample k's time ``k dt`` is entry 2k and its step's ``t + h``
 * and ``(k + 1) dt`` are entries 2k + 1 and 2k + 2, each the expression
 * the Python code forms.  This is the only place the disturbance is
 * evaluated.  Returns ``to``, or the first entry whose evaluation the
 * Python code would raise on, where the entries from that one on are of
 * no use. */
unsigned long slewguard_disturbance(double dt, unsigned long from,
                                    unsigned long to, double *out)
{
    unsigned long j;

    for (j = from; j < to; j++, out += 3) {
        unsigned long k = j / 2;
        double t = k * dt, a;
        int err = 0;

        if (j % 2)
            t = t + 0.5 * dt;
        a = DIST_OMEGA * t;
        out[0] = 1e-3 * (4.0 * trig(sin_fn, 3.0 * a, &err)
                         + 3.0 * trig(cos_fn, 10.0 * a, &err) - 40.0);
        out[1] = 1e-3 * (-1.5 * trig(sin_fn, 2.0 * a, &err)
                         + 3.0 * trig(cos_fn, 5.0 * a, &err) + 45.0);
        out[2] = 1e-3 * (3.0 * trig(sin_fn, 10.0 * a, &err)
                         - 8.0 * trig(cos_fn, 4.0 * a, &err) + 40.0);
        if (err)
            return j;
    }
    return to;
}

/* The conjugate sandwich of _LoopContext._resolve for one vector. */
static void to_body(double cx, double cy, double cz, double qw,
                    const double *v, double *out)
{
    double vx = v[0], vy = v[1], vz = v[2];
    double tx = 2.0 * (cy * vz - cz * vy);
    double ty = 2.0 * (cz * vx - cx * vz);
    double tz = 2.0 * (cx * vy - cy * vx);
    out[0] = vx + qw * tx + cy * tz - cz * ty;
    out[1] = vy + qw * ty + cz * tx - cx * tz;
    out[2] = vz + qw * tz + cx * ty - cy * tx;
}

/* _LoopContext.rhs: the derivative ``dy`` of ``y`` under the disturbance
 * ``d`` of its time (zero where the disturbance is off) and the stage
 * quantities into ``st``, with room for the body-frame cone axes in
 * ``axes`` (3 per cone).  Returns 0, or 1 where the Python code would
 * raise. */
static int rhs(const double *p, double *axes, const double *y,
               const double *d, double *dy, double *st)
{
    const double *b = p + P_B, *j = p + P_J, *ji = p + P_JI;
    const double guard = p[P_KNOT_GUARD];
    const int benchmark = p[P_BENCHMARK] != 0.0;
    const int n_cones = (int)p[P_N_CONES];
    double qx = y[0], qy = y[1], qz = y[2], qw = y[3];
    double wx = y[4], wy = y[5], wz = y[6], rho = y[7];
    double x1x = y[8], x1y = y[9], x1z = y[10];
    double x2x = y[11], x2y = y[12], x2z = y[13];
    double bx = b[0], by = b[1], bz = b[2];
    double *r_b = st + ST_RB, *betas = st + ST_BETAS;
    double n, cx, cy, cz, cw, x_e, eps, tx, ty, tz, s_eff, v_eff;
    double px = 0.0, py = 0.0, pz = 0.0, track, avoid, vx, vy, vz;
    double jwx, jwy, jwz, gx, gy, gz, ex, ey, ez, sx, sy, sz;
    double barrier, ux, uy, uz, limit;
    double rhx, rhy, rhz, rho_dot;
    double r_td, c1, c2;
    int err = 0, i;

    if (!(rho > 0.0))
        return 1;

    /* _resolve */
    n = sqrt_(qx * qx + qy * qy + qz * qz + qw * qw, &err);
    cx = div_(-qx, n, &err);
    cy = div_(-qy, n, &err);
    cz = div_(-qz, n, &err);
    cw = div_(qw, n, &err);
    to_body(cx, cy, cz, cw, p + P_R, r_b);
    for (i = 0; i < n_cones; i++) {
        double *f = axes + 3 * i;
        to_body(cx, cy, cz, cw, p + P_CONES + CONE_WIDTH * i + C_AXIS, f);
        betas[i] = bx * f[0] + by * f[1] + bz * f[2];
    }
    x_e = 1.0 - (bx * r_b[0] + by * r_b[1] + bz * r_b[2]);

    eps = div_(x_e, rho, &err);
    tx = r_b[1] * bz - r_b[2] * by;
    ty = r_b[2] * bx - r_b[0] * bz;
    tz = r_b[0] * by - r_b[1] * bx;
    if (benchmark) {
        s_eff = v_eff = 1.0;
    } else {
        s_eff = v_eff = 0.0;
        for (i = 0; i < n_cones; i++) {
            double s, v;
            s = bridge(p + P_S_SHAPE, guard, betas[i], 1.0, &err);
            if (s > s_eff)
                s_eff = s;
            v = bridge(p + P_V_SHAPE, guard, betas[i], 1.0, &err);
            if (v > v_eff)
                v_eff = v;
        }
    }

    /* controller.apf_vector */
    if (v_eff > 0.0) {
        px = p[P_K_A] * tx;
        py = p[P_K_A] * ty;
        pz = p[P_K_A] * tz;
        for (i = 0; i < n_cones; i++) {
            const double *cone = p + P_CONES + CONE_WIDTH * i;
            double fx = axes[3 * i], fy = axes[3 * i + 1];
            double fz = axes[3 * i + 2];
            double grad = bridge_grad(cone + C_SHAPE, guard, betas[i],
                                      cone[C_K_R], &err);
            if (grad == 0.0)
                continue;
            px -= grad * (fy * bz - fz * by);
            py -= grad * (fz * bx - fx * bz);
            pz -= grad * (fx * by - fy * bx);
        }
    }

    /* controller.virtual_law */
    track = 0.0;
    if (v_eff < 1.0)
        track = div_(-p[P_K1] * rho * eps * (1.0 - v_eff),
                     tx * tx + ty * ty + tz * tz + p[P_SIGMA], &err);
    avoid = 0.0;
    if (v_eff > 0.0)
        avoid = div_(-p[P_K_P] * v_eff,
                     px * px + py * py + pz * pz + p[P_SIGMA], &err);
    vx = tx * track + px * avoid;
    vy = ty * track + py * avoid;
    vz = tz * track + pz * avoid;

    jwx = j[0] * wx + j[1] * wy + j[2] * wz;
    jwy = j[3] * wx + j[4] * wy + j[5] * wz;
    jwz = j[6] * wx + j[7] * wy + j[8] * wz;
    gx = wy * jwz - wz * jwy;
    gy = wz * jwx - wx * jwz;
    gz = wx * jwy - wy * jwx;
    ex = wx - x1x;
    ey = wy - x1y;
    ez = wz - x1z;
    sx = x2x;
    sy = x2y;
    sz = x2z;

    /* controller.torque_law, and benchmark_apf_law: the baseline's
     * switches are both 1, so its barrier is 0, as the eps and rho that
     * benchmark_apf_law passes make it, and its descent term is P1 */
    barrier = 0.0;
    if (s_eff < 1.0)
        barrier = div_(p[P_G] * tanh(div_(eps, p[P_BIG_F], &err)), rho,
                       &err) * (1.0 - s_eff);
    ux = (gx - p[P_K_OMEGA] * ex
          - p[P_DIST_BOUND] * tanh(div_(ex, p[P_ETA], &err))
          + (j[0] * sx + j[1] * sy + j[2] * sz) - barrier * tx - v_eff * px);
    uy = (gy - p[P_K_OMEGA] * ey
          - p[P_DIST_BOUND] * tanh(div_(ey, p[P_ETA], &err))
          + (j[3] * sx + j[4] * sy + j[5] * sz) - barrier * ty - v_eff * py);
    uz = (gz - p[P_K_OMEGA] * ez
          - p[P_DIST_BOUND] * tanh(div_(ez, p[P_ETA], &err))
          + (j[6] * sx + j[7] * sy + j[8] * sz) - barrier * tz - v_eff * pz);
    limit = p[P_TORQUE_LIMIT];
    if (x_e > p[P_ANTIPODAL]) {
        /* the first axis of least |boresight| component */
        double mags[3] = {fabs(bx), fabs(by), fabs(bz)};
        double nudge = p[P_NUDGE] * limit;
        int m = 0;
        if (mags[1] < mags[m])
            m = 1;
        if (mags[2] < mags[m])
            m = 2;
        if (m == 0)
            ux += nudge;
        else if (m == 1)
            uy += nudge;
        else
            uz += nudge;
    }
    ux = ux > limit ? limit : ux < -limit ? -limit : ux;
    uy = uy > limit ? limit : uy < -limit ? -limit : uy;
    uz = uz > limit ? limit : uz < -limit ? -limit : uz;

    /* rigid body: J w_dot = -w x (J w) + u + d */
    rhx = -gx + ux + d[0];
    rhy = -gy + uy + d[1];
    rhz = -gz + uz + d[2];
    dy[4] = ji[0] * rhx + ji[1] * rhy + ji[2] * rhz;
    dy[5] = ji[3] * rhx + ji[4] * rhy + ji[5] * rhz;
    dy[6] = ji[6] * rhx + ji[7] * rhy + ji[8] * rhz;

    if (benchmark) {
        rho_dot = 0.0;
    } else {
        double e_dot = tx * wx + ty * wy + tz * wz;
        double shrink = p[P_NEG_K_RHO] * (rho - p[P_RHO_INF]);
        double follow = 0.0;
        if (!(fabs(x_e) < p[P_RATIO_FLOOR]))
            follow = div_(e_dot, x_e, &err) * rho;
        rho_dot = (1.0 - s_eff) * shrink + s_eff * follow;
    }
    dy[7] = rho_dot;

    r_td = p[P_TD];
    c1 = p[P_TD + 1];
    c2 = p[P_TD + 2];
    dy[8] = x2x;
    dy[9] = x2y;
    dy[10] = x2z;
    dy[11] = c1 * tanh(x1x - vx) - c2 * tanh(div_(x2x, r_td, &err));
    dy[12] = c1 * tanh(x1y - vy) - c2 * tanh(div_(x2y, r_td, &err));
    dy[13] = c1 * tanh(x1z - vz) - c2 * tanh(div_(x2z, r_td, &err));

    dy[0] = 0.5 * (qw * wx + qx * 0.0 + qy * wz - qz * wy);
    dy[1] = 0.5 * (qw * wy - qx * wz + qy * 0.0 + qz * wx);
    dy[2] = 0.5 * (qw * wz + qx * wy - qy * wx + qz * 0.0);
    dy[3] = 0.5 * (qw * 0.0 - qx * wx - qy * wy - qz * wz);

    st[ST_XE] = x_e;
    st[ST_EPS] = eps;
    st[ST_S] = s_eff;
    st[ST_V] = v_eff;
    st[ST_VCMD] = vx;
    st[ST_VCMD + 1] = vy;
    st[ST_VCMD + 2] = vz;
    st[ST_E2] = ex;
    st[ST_E2 + 1] = ey;
    st[ST_E2 + 2] = ez;
    st[ST_U] = ux;
    st[ST_U + 1] = uy;
    st[ST_U + 2] = uz;
    return err;
}

static void axpy(const double *y, double h, const double *k, double *out)
{
    int i;
    for (i = 0; i < 14; i++)
        out[i] = y[i] + h * k[i];
}

/* _LoopContext.step and _check_state: ``y`` advanced by ``dt`` into
 * ``out``, given its derivative ``k1``, under the disturbance ``d_half``
 * of stages 2 and 3 and ``d_next`` of stage 4.  Returns 0, or 1 where the
 * Python code would raise. */
static int step(const double *p, double *axes, const double *y, double dt,
                const double *k1, const double *d_half, const double *d_next,
                double *out, double *st)
{
    double k2[14], k3[14], k4[14], z[14], c, n, h = 0.5 * dt;
    int err = 0, i;

    axpy(y, h, k1, z);
    if (rhs(p, axes, z, d_half, k2, st))
        return 1;
    axpy(y, h, k2, z);
    if (rhs(p, axes, z, d_half, k3, st))
        return 1;
    axpy(y, dt, k3, z);
    if (rhs(p, axes, z, d_next, k4, st))
        return 1;
    c = dt / 6.0;
    for (i = 0; i < 14; i++)
        out[i] = y[i] + c * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    n = sqrt_(square(out[0], &err) + square(out[1], &err)
              + square(out[2], &err) + square(out[3], &err), &err);
    for (i = 0; i < 4; i++)
        out[i] = div_(out[i], n, &err);
    for (i = 0; i < 14; i++)
        if (!isfinite(out[i]))
            err = 1;
    return err;
}

/* _LoopContext.energies: ``v_q`` and ``v_omega`` of the stage ``st`` into
 * ``e``; blf_value and total_potential form ``v_q``, with envelope._ln_cosh
 * written out. */
static void energies(const double *p, const double *st, double *e, int *err)
{
    const double *j = p + P_J, *r = st + ST_E2;
    const int n_cones = (int)p[P_N_CONES];
    double total = p[P_K_A] * st[ST_XE];
    double az = fabs(div_(st[ST_EPS], p[P_BIG_F], err));
    int i;

    for (i = 0; i < n_cones; i++) {
        const double *cone = p + P_CONES + CONE_WIDTH * i;
        total += bridge(cone + C_SHAPE, p[P_KNOT_GUARD], st[ST_BETAS + i],
                        cone[C_K_R], err);
    }
    e[0] = p[P_G] * p[P_BIG_F] * (az + log1p(exp(-2.0 * az)) - p[P_LN2])
           + total;
    e[1] = 0.5 * (r[0] * (j[0] * r[0] + j[1] * r[1] + j[2] * r[2])
                  + r[1] * (j[3] * r[0] + j[4] * r[1] + j[5] * r[2])
                  + r[2] * (j[6] * r[0] + j[7] * r[1] + j[8] * r[2]));
}

/* The sample at ``t`` of state ``y`` and stage ``st``: its row of
 * _LoopContext.record into ``row`` where it is logged (else ``row`` is
 * NULL), then _RunStats.add into the statistics record ``s``.  Each forms
 * its values from the state and the stage, as in Python, so the two share
 * the angle, the norm error and the energies here.  Returns 0, or 1 where
 * the Python code would raise, before anything is folded. */
static int take(const double *p, double *s, double t, const double *y,
                const double *st, double *row)
{
    const int n_cones = (int)p[P_N_CONES];
    const int n_levels = (int)s[S_N_LEVELS];
    const double *betas = st + ST_BETAS, *u = st + ST_U;
    const double s_eff = st[ST_S];
    const int first = s[S_SAMPLES] == 0.0, open = s[S_OPEN] != 0.0;
    double *levels = s + S_LEVELS, *max_betas = levels + 2 * n_levels;
    double c = 1.0 - st[ST_XE], angle, q_err, e[2], m, rise = 0.0;
    int err = 0, i, starts, pair;

    /* first what the Python code can raise on, so that such a sample
     * folds nothing: q_err (engine._quat_norm_error, whose ``** 2`` can
     * overflow), the energies and a pair's slope.  The angle is
     * engine._pointing_angle_deg with potential.clamped_acos. */
    angle = acos(c <= -1.0 ? -1.0 : c < 1.0 ? c : 1.0) * p[P_RAD_TO_DEG];
    q_err = fabs(sqrt(square(y[0], &err) + square(y[1], &err)
                      + square(y[2], &err) + square(y[3], &err)) - 1.0);
    starts = !(angle < 1.0 || t < 1.0);
    pair = !(s_eff > 1e-9) && (starts || open);
    if (row != NULL || pair)
        energies(p, st, e, &err);
    if (pair && open)
        rise = div_(e[0] + e[1] - s[S_V_START], t - s[S_T_START], &err);
    if (err)
        return 1;

    if (row != NULL) {
        double dx = y[8] - st[ST_VCMD], dy = y[9] - st[ST_VCMD + 1];
        double dz = y[10] - st[ST_VCMD + 2];
        row[0] = t;
        row[1] = st[ST_XE];
        row[2] = angle;
        for (i = 0; i < n_cones; i++)
            row[3 + i] = betas[i];
        row += 3 + n_cones;
        row[0] = y[7];
        row[1] = st[ST_EPS];
        row[2] = s_eff;
        row[3] = st[ST_V];
        for (i = 0; i < 3; i++) {
            row[4 + i] = y[4 + i];
            row[7 + i] = u[i];
        }
        row[10] = e[0];
        row[11] = e[1];
        row[12] = sqrt(dx * dx + dy * dy + dz * dz);
        row[13] = q_err;
    }

    for (i = 0; i < n_cones; i++)
        if (betas[i] > max_betas[i])
            max_betas[i] = betas[i];
    if (s_eff < 0.5) {
        double a = fabs(st[ST_EPS]);
        if (s[S_TRACKING] == 0.0 || a > s[S_MAX_EPS]) {
            s[S_MAX_EPS] = a;
            s[S_TRACKING] = 1.0;
        }
    }
    /* max() keeps the first of equal or unordered values */
    m = fabs(u[0]);
    if (fabs(u[1]) > m)
        m = fabs(u[1]);
    if (fabs(u[2]) > m)
        m = fabs(u[2]);
    s[S_SAMPLES] += 1.0;
    if (m >= s[S_SAT_LIMIT])
        s[S_SATURATED] += 1.0;
    if (m > s[S_MAX_TORQUE])
        s[S_MAX_TORQUE] = m;

    if (first)
        s[S_INITIAL] = angle;
    s[S_FINAL] = angle;
    if (first || q_err > s[S_MAX_Q_ERR])
        s[S_MAX_Q_ERR] = q_err;
    for (i = 0; i < 2 * n_levels; i += 2) {
        if (!(levels[i] > angle))
            levels[i + 1] = NAN;
        else if (isnan(levels[i + 1]))
            levels[i + 1] = t;
    }
    if (t >= s[S_WINDOW_START]
        && (s[S_IN_WINDOW] == 0.0 || angle > s[S_TERMINAL])) {
        s[S_TERMINAL] = angle;
        s[S_IN_WINDOW] = 1.0;
    }

    if (s_eff > 1e-9) {
        s[S_OPEN] = 0.0;
    } else if (pair) {
        if (open) {
            s[S_PAIRS] += 1.0;
            if (rise > 0.0)
                s[S_RISING] += 1.0;
        }
        s[S_OPEN] = starts;
        s[S_V_START] = e[0] + e[1];
        s[S_T_START] = t;
    }
    return 0;
}

/* The private block's steps: a run beyond its table reads the
 * disturbance of these many steps at a time from a block of its own */
#define BLOCK_STEPS 256

static const double ZERO[9] = {0.0};

/* Samples 0 to ``n`` of a run of ``n`` steps of ``dt``, from the state
 * ``y`` of sample 0: each is folded into the statistics record ``s``, and
 * where ``k % stride == 0`` or ``k == n`` its row is written to row
 * ceil(k / stride) of the run's log ``out``; unless it is sample ``n`` it
 * is stepped from.  Returns the number of samples completed; ``y`` then
 * holds the state of the next one.  A sample the Python code would raise
 * on, in its evaluation, its row, its statistics or the step after it, is
 * not completed, and the run stops there.
 *
 * The disturbance comes from ``table``, the first ``n_table`` entries of
 * ``slewguard_disturbance`` at ``dt``, which this code only reads; where a
 * sample's entries lie beyond it, from a private block that the run
 * refills with that function.  A NULL ``table`` is a run without the
 * disturbance. */
long slewguard_run(const double *p, double *y, long n, double dt,
                   long stride, double *s, double *out, const double *table,
                   unsigned long n_table)
{
    const int n_cones = (int)p[P_N_CONES];
    const int width = ROW_WIDTH + n_cones;
    double k1[14], next[14];
    /* the cone axes, the sample's stage quantities, then those of stages
     * 2 to 4 of its step, which nothing reads, then the private block */
    double *work = malloc(sizeof(double) * (5 * n_cones + 2 * ST_BETAS
                                            + 3 * (2 * BLOCK_STEPS + 1)));
    double *axes = work, *stage = work + 3 * n_cones;
    double *scratch = stage + ST_BETAS + n_cones;
    double *block = scratch + ST_BETAS + n_cones;
    /* the block holds entries ``base`` to ``end - 1`` */
    unsigned long base = 0, end = 0;
    long k;
    int i;

    if (work == NULL)
        return 0;
    for (k = 0; k <= n; k++) {
        /* sample k's disturbance, entry 2k, then its step's, entries
         * 2k + 1 and 2k + 2; the index is unsigned, so 2k cannot overflow */
        unsigned long j = 2 * (unsigned long)k, last = k < n ? j + 2 : j;
        const double *d = ZERO;
        double *row = NULL;

        if (table != NULL && last < n_table) {
            d = table + 3 * j;
        } else if (table != NULL) {
            if (last >= end) {
                unsigned long steps = (unsigned long)(n - k);

                if (steps > BLOCK_STEPS)
                    steps = BLOCK_STEPS;
                base = j;
                end = slewguard_disturbance(dt, j, j + 2 * steps + 1, block);
                if (last >= end)
                    break;
            }
            d = block + 3 * (j - base);
        }
        /* ceil(k / stride), written so that no sum can overflow */
        if (k % stride == 0 || k == n)
            row = out + (k / stride + (k % stride != 0)) * width;
        if (rhs(p, axes, y, d, k1, stage))
            break;
        if (k < n && step(p, axes, y, dt, k1, d + 3, d + 6, next, scratch))
            break;
        if (take(p, s, k * dt, y, stage, row))
            break;
        if (k < n)
            for (i = 0; i < 14; i++)
                y[i] = next[i];
    }
    free(work);
    return k;
}

/* ``trajectory.csv`` text: each value exactly as Python's ``'%.17g' % v``
 * writes it, the 17-significant-digit decimal nearest the double, ties to
 * even, in exponent form below 1e-4 and from 1e17 on (two exponent digits
 * at least), with trailing zeros and a bare point dropped; ``-0``, ``inf``,
 * ``-inf``, and ``nan`` for every NaN (glibc writes ``-nan`` for some).
 * Where the compiler has a 128-bit integer, each value of 2**-53 to 2**123
 * in magnitude is rounded in exact integer arithmetic; every other one,
 * and every one where it has none, goes to ``snprintf``, which glibc
 * rounds correctly.  The longest value, ``-1.2345678901234567e-308``, is
 * 24 bytes: CSV_VALUE_BYTES, from ``_kernel.py``, counts them with the
 * separator. */

#define DIGITS 17
#define TEN_16 10000000000000000ULL
#define TEN_17 100000000000000000ULL

#ifdef __SIZEOF_INT128__
__extension__ typedef unsigned __int128 u128;

/* "00" to "99" */
static const char PAIRS[] =
    "000102030405060708091011121314151617181920212223242526272829"
    "303132333435363738394041424344454647484950515253545556575859"
    "606162636465666768697071727374757677787980818283848586878889"
    "90919293949596979899";

/* 5**0 to 5**27, the powers of five that fit in 64 bits */
static const unsigned long long POW5[] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL, 390625ULL,
    1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL, 1220703125ULL,
    6103515625ULL, 30517578125ULL, 152587890625ULL, 762939453125ULL,
    3814697265625ULL, 19073486328125ULL, 95367431640625ULL, 476837158203125ULL,
    2384185791015625ULL, 11920928955078125ULL, 59604644775390625ULL,
    298023223876953125ULL, 1490116119384765625ULL, 7450580596923828125ULL
};

/* The 17-digit significand of f * 2**e, whose decimal exponent is *x or
 * *x + 1, rounded half to even on the exact value; *x is set to the
 * exponent.  *x is in -16 .. 36, so f * 5**(16 - *x) < 2**53 * 5**32 and
 * f * 2**e < 2**123 fit in 128 bits. */
static unsigned long long decimal_digits(unsigned long long f, int e, int *x)
{
    u128 q, r, half;
    int s = *x - 16;

    for (;;) {
        if (s <= 0) {
            /* f * 2**e * 10**-s = f * 5**-s * 2**(e - s) */
            u128 m = (u128)f * POW5[-s < 27 ? -s : 27];
            int t = e - s;

            if (-s > 27)
                m *= POW5[-s - 27];
            if (t >= 0) {
                q = m << t;
                r = 0;
                half = 1;
            } else {
                q = m >> -t;
                r = m & (((u128)1 << -t) - 1);
                half = (u128)1 << (-t - 1);
            }
        } else {
            /* f * 2**e / 10**s, with 10**s = 5**s * 2**s and s <= 21 */
            u128 n = (u128)f << e, p = (u128)POW5[s] << s;

            q = n / p;
            r = n % p;
            half = p / 2;
        }
        if (q < TEN_17)
            break;
        /* the exponent is *x + 1 */
        (*x)++;
        s++;
    }
    if (r > half || (r == half && (q & 1)))
        q++;
    if (q == TEN_17) {
        q = TEN_16;
        (*x)++;
    }
    return (unsigned long long)q;
}
#endif

/* Writes the text of the finite, nonzero |v| at out; returns its end. */
static char *magnitude(double v, char *out)
{
#ifdef __SIZEOF_INT128__
    unsigned long long bits, d;
    unsigned hi, lo;
    char digits[DIGITS];
    int be, n, x, nd, i;

    memcpy(&bits, &v, sizeof bits);
    be = (int)(bits >> 52 & 0x7ff);
    /* v is f * 2**(n - 52), f of 53 bits, so 10**x <= v < 10**(x + 2) with
     * x = floor(n * log10(2)), which 78913 / 2**18 gives for |n| < 1650 */
    n = be - 1023;
    if (be != 0 && n >= -53 && n <= 122) {
        x = ((n * 78913 + (64 << 18)) >> 18) - 64;
        d = decimal_digits((bits & ((1ULL << 52) - 1)) | 1ULL << 52,
                           n - 52, &x);
        /* the 17 digits from the last, two at a time in 32 bits: the
         * 8 of d % 10**8, then the 9 above them */
        lo = (unsigned)(d % 100000000);
        hi = (unsigned)(d / 100000000);
        for (i = DIGITS - 2; i > 8; i -= 2, lo /= 100)
            memcpy(digits + i, PAIRS + 2 * (lo % 100), 2);
        for (; i > 0; i -= 2, hi /= 100)
            memcpy(digits + i, PAIRS + 2 * (hi % 100), 2);
        digits[0] = (char)('0' + hi);
        for (nd = DIGITS; digits[nd - 1] == '0'; nd--)
            ;
        if (x < -4 || x >= DIGITS) {
            /* -16 <= x <= 37: two exponent digits */
            *out++ = digits[0];
            if (nd > 1) {
                *out++ = '.';
                memcpy(out, digits + 1, nd - 1);
                out += nd - 1;
            }
            *out++ = 'e';
            *out++ = x < 0 ? '-' : '+';
            x = abs(x);
            *out++ = (char)('0' + x / 10);
            *out++ = (char)('0' + x % 10);
        } else if (x < 0) {
            *out++ = '0';
            *out++ = '.';
            memset(out, '0', -x - 1);
            out += -x - 1;
            memcpy(out, digits, nd);
            out += nd;
        } else if (nd <= x + 1) {
            memcpy(out, digits, nd);
            memset(out + nd, '0', x + 1 - nd);
            out += x + 1;
        } else {
            memcpy(out, digits, x + 1);
            out += x + 1;
            *out++ = '.';
            memcpy(out, digits + x + 1, nd - x - 1);
            out += nd - x - 1;
        }
        return out;
    }
#endif
    {
        char text[32];
        int len = snprintf(text, sizeof text, "%.17g", v);

        memcpy(out, text, len);
        return out + len;
    }
}

/* Writes the text of the ``n`` values at ``v``, ``width`` to a row, as
 * rows of ``trajectory.csv`` into ``out``, which holds ``cap`` bytes, and
 * returns the number of bytes written: -1, with nothing written, where
 * ``n`` is not a whole number of rows or the longest text of ``n`` values
 * could exceed ``cap``. */
long slewguard_csv(const double *v, long n, long width, char *out, long cap)
{
    char *p = out;
    long i, column = 0;

    if (width < 1 || n < 0 || n % width != 0 || n > cap / CSV_VALUE_BYTES)
        return -1;
    for (i = 0; i < n; i++) {
        if (isnan(v[i])) {
            memcpy(p, "nan", 3);
            p += 3;
        } else {
            if (signbit(v[i]))
                *p++ = '-';
            if (isinf(v[i])) {
                memcpy(p, "inf", 3);
                p += 3;
            } else if (v[i] == 0.0) {
                *p++ = '0';
            } else {
                p = magnitude(fabs(v[i]), p);
            }
        }
        if (++column < width) {
            *p++ = ',';
        } else {
            *p++ = '\n';
            column = 0;
        }
    }
    return p - out;
}
