/*
 * Compiled edwards25519 group arithmetic; module_doc below states its
 * contract.  The field layout is ref10's: Bernstein, Duif, Lange, Schwabe
 * and Yang, "High-speed high-security signatures" (CHES 2011).  Needs a C
 * compiler with unsigned __int128 (GCC or Clang on a 64-bit target).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

PyDoc_STRVAR(module_doc,
"Compiled edwards25519 group arithmetic.\n\n"
"Field elements are five unsigned 51-bit limbs (radix 2^51) so products fit\n"
"in 128-bit accumulators; point math uses the same extended-coordinate\n"
"formulas as the pure-Python kernel.  Exposes the identical two-function\n"
"contract, selected by flagless.ed25519 when the extension built:\n\n"
"    scalarmult_base(k)            -> 32-byte encoding of k*B\n"
"    scalarmult_sub(s, h, ax, ay)  -> 32-byte encoding of s*B - h*A\n\n"
"Scalars must satisfy 0 <= k < 2^256 (OverflowError otherwise).  The curve\n"
"constants come from flagless._ed25519_core at import.");

typedef uint64_t u64;
typedef unsigned __int128 u128;

#define MASK 0x7ffffffffffffULL /* 2^51 - 1 */
/* 2*p in radix 2^51; added before subtraction to keep limbs non-negative */
#define TWO_P0 0xfffffffffffdaULL
#define TWO_PI 0xffffffffffffeULL

typedef struct {
    u64 v[5];
} fe;

typedef struct { /* x = X/Z, y = Y/Z, x*y = T/Z */
    fe X, Y, Z, T;
} ge;

static fe FE_ZERO;
static fe FE_D2;
static ge GE_B;
static PyObject *LOW255_INT; /* 2^255 - 1 */

static inline void fe_carry(fe *h)
{
    u64 c;
    c = h->v[0] >> 51; h->v[0] &= MASK; h->v[1] += c;
    c = h->v[1] >> 51; h->v[1] &= MASK; h->v[2] += c;
    c = h->v[2] >> 51; h->v[2] &= MASK; h->v[3] += c;
    c = h->v[3] >> 51; h->v[3] &= MASK; h->v[4] += c;
    c = h->v[4] >> 51; h->v[4] &= MASK; h->v[0] += c * 19;
    c = h->v[0] >> 51; h->v[0] &= MASK; h->v[1] += c;
}

static inline void fe_add(fe *h, const fe *f, const fe *g)
{
    for (int i = 0; i < 5; i++)
        h->v[i] = f->v[i] + g->v[i];
    fe_carry(h);
}

static inline void fe_sub(fe *h, const fe *f, const fe *g)
{
    h->v[0] = f->v[0] + TWO_P0 - g->v[0];
    h->v[1] = f->v[1] + TWO_PI - g->v[1];
    h->v[2] = f->v[2] + TWO_PI - g->v[2];
    h->v[3] = f->v[3] + TWO_PI - g->v[3];
    h->v[4] = f->v[4] + TWO_PI - g->v[4];
    fe_carry(h);
}

static void fe_mul(fe *h, const fe *f, const fe *g)
{
    u64 f0 = f->v[0], f1 = f->v[1], f2 = f->v[2], f3 = f->v[3], f4 = f->v[4];
    u64 g0 = g->v[0], g1 = g->v[1], g2 = g->v[2], g3 = g->v[3], g4 = g->v[4];
    u128 t0, t1, t2, t3, t4;

    t0 = (u128)f0 * g0 + 19 * ((u128)f1 * g4 + (u128)f2 * g3 + (u128)f3 * g2 + (u128)f4 * g1);
    t1 = (u128)f0 * g1 + (u128)f1 * g0 + 19 * ((u128)f2 * g4 + (u128)f3 * g3 + (u128)f4 * g2);
    t2 = (u128)f0 * g2 + (u128)f1 * g1 + (u128)f2 * g0 + 19 * ((u128)f3 * g4 + (u128)f4 * g3);
    t3 = (u128)f0 * g3 + (u128)f1 * g2 + (u128)f2 * g1 + (u128)f3 * g0 + 19 * ((u128)f4 * g4);
    t4 = (u128)f0 * g4 + (u128)f1 * g3 + (u128)f2 * g2 + (u128)f3 * g1 + (u128)f4 * g0;

    u64 r0, r1, r2, r3, r4, c;
    r0 = (u64)t0 & MASK; t1 += (u64)(t0 >> 51);
    r1 = (u64)t1 & MASK; t2 += (u64)(t1 >> 51);
    r2 = (u64)t2 & MASK; t3 += (u64)(t2 >> 51);
    r3 = (u64)t3 & MASK; t4 += (u64)(t3 >> 51);
    r4 = (u64)t4 & MASK; c = (u64)(t4 >> 51);
    r0 += c * 19;
    c = r0 >> 51; r0 &= MASK; r1 += c;
    h->v[0] = r0; h->v[1] = r1; h->v[2] = r2; h->v[3] = r3; h->v[4] = r4;
}

static void fe_invert(fe *out, const fe *z)
{
    /* z^(p-2); p-2 = 2^255 - 21 has bits 8..254 set and low byte 0xeb */
    fe r = *z;
    for (int i = 253; i >= 0; i--) {
        fe_mul(&r, &r, &r);
        if (i >= 8 || ((0xeb >> i) & 1))
            fe_mul(&r, &r, z);
    }
    *out = r;
}

static void fe_tobytes(unsigned char *s, const fe *f)
{
    fe t = *f;
    fe_carry(&t);
    fe_carry(&t);
    /* canonical reduction: add 19 iff t >= p, then drop bit 255 */
    u64 q = (t.v[0] + 19) >> 51;
    q = (t.v[1] + q) >> 51;
    q = (t.v[2] + q) >> 51;
    q = (t.v[3] + q) >> 51;
    q = (t.v[4] + q) >> 51;
    t.v[0] += 19 * q;
    u64 c;
    c = t.v[0] >> 51; t.v[0] &= MASK; t.v[1] += c;
    c = t.v[1] >> 51; t.v[1] &= MASK; t.v[2] += c;
    c = t.v[2] >> 51; t.v[2] &= MASK; t.v[3] += c;
    c = t.v[3] >> 51; t.v[3] &= MASK; t.v[4] += c;
    t.v[4] &= MASK;

    u64 w0 = t.v[0] | (t.v[1] << 51);
    u64 w1 = (t.v[1] >> 13) | (t.v[2] << 38);
    u64 w2 = (t.v[2] >> 26) | (t.v[3] << 25);
    u64 w3 = (t.v[3] >> 39) | (t.v[4] << 12);
    for (int i = 0; i < 8; i++) {
        s[i] = (unsigned char)(w0 >> (8 * i));
        s[8 + i] = (unsigned char)(w1 >> (8 * i));
        s[16 + i] = (unsigned char)(w2 >> (8 * i));
        s[24 + i] = (unsigned char)(w3 >> (8 * i));
    }
}

/* The low 255 bits of the little-endian s, as limbs; bit 255 is dropped. */
static void fe_frombytes(fe *h, const unsigned char *s)
{
    u64 w[4] = {0, 0, 0, 0};
    for (int i = 0; i < 32; i++)
        w[i / 8] |= (u64)s[i] << (8 * (i % 8));
    h->v[0] = w[0] & MASK;
    h->v[1] = ((w[0] >> 51) | (w[1] << 13)) & MASK;
    h->v[2] = ((w[1] >> 38) | (w[2] << 26)) & MASK;
    h->v[3] = ((w[2] >> 25) | (w[3] << 39)) & MASK;
    h->v[4] = (w[3] >> 12) & MASK;
}

static void ge_identity(ge *r)
{
    memset(r, 0, sizeof *r);
    r->Y.v[0] = 1;
    r->Z.v[0] = 1;
}

static void ge_add(ge *r, const ge *p, const ge *q)
{
    fe a, b, c, d, e, f, g, h, t;
    fe_sub(&a, &p->Y, &p->X);
    fe_sub(&t, &q->Y, &q->X);
    fe_mul(&a, &a, &t);
    fe_add(&b, &p->Y, &p->X);
    fe_add(&t, &q->Y, &q->X);
    fe_mul(&b, &b, &t);
    fe_mul(&c, &p->T, &q->T);
    fe_mul(&c, &c, &FE_D2);
    fe_mul(&d, &p->Z, &q->Z);
    fe_add(&d, &d, &d);
    fe_sub(&e, &b, &a);
    fe_sub(&f, &d, &c);
    fe_add(&g, &d, &c);
    fe_add(&h, &b, &a);
    fe_mul(&r->X, &e, &f);
    fe_mul(&r->Y, &g, &h);
    fe_mul(&r->Z, &f, &g);
    fe_mul(&r->T, &e, &h);
}

static void ge_dbl(ge *r, const ge *p)
{
    fe a, b, c, e, f, g, h, t;
    fe_mul(&a, &p->X, &p->X);
    fe_mul(&b, &p->Y, &p->Y);
    fe_mul(&c, &p->Z, &p->Z);
    fe_add(&c, &c, &c);
    fe_add(&t, &p->X, &p->Y);
    fe_mul(&t, &t, &t);
    fe_sub(&e, &t, &a);
    fe_sub(&e, &e, &b);
    fe_sub(&g, &b, &a);
    fe_sub(&f, &g, &c);
    fe_sub(&h, &FE_ZERO, &a);
    fe_sub(&h, &h, &b);
    fe_mul(&r->X, &e, &f);
    fe_mul(&r->Y, &g, &h);
    fe_mul(&r->Z, &f, &g);
    fe_mul(&r->T, &e, &h);
}

static void ge_scalarmult(ge *r, const ge *p, const unsigned char *k)
{
    /* k is a 32-byte little-endian scalar */
    ge acc;
    ge_identity(&acc);
    for (int i = 255; i >= 0; i--) {
        ge_dbl(&acc, &acc);
        if ((k[i >> 3] >> (i & 7)) & 1)
            ge_add(&acc, &acc, p);
    }
    *r = acc;
}

static void ge_tobytes(unsigned char *out, const ge *p)
{
    fe zinv, x, y;
    unsigned char xb[32];
    fe_invert(&zinv, &p->Z);
    fe_mul(&x, &p->X, &zinv);
    fe_mul(&y, &p->Y, &zinv);
    fe_tobytes(xb, &x);
    fe_tobytes(out, &y);
    out[31] |= (xb[0] & 1) << 7;
}

/* ---------------------------------------------------- Python conversions */

/* int(n).to_bytes(32, "little"): OverflowError unless 0 <= n < 2^256. */
static int scalar_bytes(unsigned char *out, PyObject *n)
{
    PyObject *i = PyNumber_Long(n);
    if (i == NULL)
        return -1;
    PyObject *b = PyObject_CallMethod(i, "to_bytes", "is", 32, "little");
    Py_DECREF(i);
    if (b == NULL)
        return -1;
    memcpy(out, PyBytes_AS_STRING(b), 32);
    Py_DECREF(b);
    return 0;
}

/* The field element whose limbs are the low 255 bits of the int n. */
static int fe_from_int(fe *h, PyObject *n)
{
    unsigned char s[32];
    PyObject *low = PyNumber_And(n, LOW255_INT);
    if (low == NULL)
        return -1;
    int err = scalar_bytes(s, low);
    Py_DECREF(low);
    if (err)
        return -1;
    fe_frombytes(h, s);
    return 0;
}

/* The extended point (x, y, 1, x*y) of the affine ints x and y. */
static int ge_from_affine(ge *r, PyObject *x, PyObject *y)
{
    if (fe_from_int(&r->X, x) || fe_from_int(&r->Y, y))
        return -1;
    fe_mul(&r->T, &r->X, &r->Y);
    memset(&r->Z, 0, sizeof r->Z);
    r->Z.v[0] = 1;
    return 0;
}

static PyObject *encoded(const ge *p)
{
    unsigned char out[32];
    ge_tobytes(out, p);
    return PyBytes_FromStringAndSize((const char *)out, 32);
}

/* ------------------------------------------------------------- functions */

PyDoc_STRVAR(scalarmult_base_doc,
"scalarmult_base(k) -> bytes\n\nEncoded k*B for the curve base point B.");

static PyObject *scalarmult_base(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"k", NULL};
    PyObject *k;
    unsigned char kb[32];
    ge r;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O:scalarmult_base", kwlist, &k))
        return NULL;
    if (scalar_bytes(kb, k))
        return NULL;
    ge_scalarmult(&r, &GE_B, kb);
    return encoded(&r);
}

PyDoc_STRVAR(scalarmult_sub_doc,
"scalarmult_sub(s, h, ax, ay) -> bytes\n\n"
"Encoded s*B - h*A for the affine point A = (ax, ay).");

static PyObject *scalarmult_sub(PyObject *module, PyObject *args, PyObject *kwargs)
{
    static char *kwlist[] = {"s", "h", "ax", "ay", NULL};
    PyObject *s, *h, *ax, *ay;
    unsigned char sb[32], hb[32];
    ge a_neg, r1, r2;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOO:scalarmult_sub", kwlist,
                                     &s, &h, &ax, &ay))
        return NULL;
    if (ge_from_affine(&a_neg, ax, ay) || scalar_bytes(sb, s) || scalar_bytes(hb, h))
        return NULL;
    fe_sub(&a_neg.X, &FE_ZERO, &a_neg.X); /* -A = (-x, y, 1, -x*y) */
    fe_sub(&a_neg.T, &FE_ZERO, &a_neg.T);
    ge_scalarmult(&r1, &GE_B, sb);
    ge_scalarmult(&r2, &a_neg, hb);
    ge_add(&r1, &r1, &r2);
    return encoded(&r1);
}

static PyMethodDef kernel_methods[] = {
    {"scalarmult_base", (PyCFunction)(void (*)(void))scalarmult_base,
     METH_VARARGS | METH_KEYWORDS, scalarmult_base_doc},
    {"scalarmult_sub", (PyCFunction)(void (*)(void))scalarmult_sub,
     METH_VARARGS | METH_KEYWORDS, scalarmult_sub_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "flagless._ed25519_ckernel",
    .m_doc = module_doc,
    .m_size = -1,
    .m_methods = kernel_methods,
};

/* Load the curve constants from flagless._ed25519_core, their one definition. */
static int load_constants(void)
{
    PyObject *core = PyImport_ImportModule("flagless._ed25519_core");
    if (core == NULL)
        return -1;
    PyObject *bx = NULL, *by = NULL, *d = NULL;
    int err = -1;
    if ((bx = PyObject_GetAttrString(core, "B_X")) == NULL
        || (by = PyObject_GetAttrString(core, "B_Y")) == NULL
        || (d = PyObject_GetAttrString(core, "D")) == NULL
        || (LOW255_INT = PyLong_FromString(
                "7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff", NULL, 16)) == NULL
        || fe_from_int(&FE_D2, d)
        || ge_from_affine(&GE_B, bx, by))
        goto done;
    fe_add(&FE_D2, &FE_D2, &FE_D2);
    err = 0;
done:
    Py_DECREF(core);
    Py_XDECREF(bx);
    Py_XDECREF(by);
    Py_XDECREF(d);
    return err;
}

PyMODINIT_FUNC PyInit__ed25519_ckernel(void)
{
    if (LOW255_INT == NULL && load_constants()) {
        Py_CLEAR(LOW255_INT);
        return NULL;
    }
    return PyModule_Create(&kernel_module);
}
