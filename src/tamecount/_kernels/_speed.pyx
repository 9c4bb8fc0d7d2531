# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled permutation kernels; behavioral twin of tamecount._kernels.pure."""

from cpython.tuple cimport PyTuple_New, PyTuple_SET_ITEM
from cpython.ref cimport Py_INCREF
from libc.stdlib cimport malloc, free

BACKEND = "speed"


cdef inline void _fill(int* buf, tuple p, Py_ssize_t n):
    cdef Py_ssize_t i
    for i in range(n):
        buf[i] = <int> p[i]


cdef inline tuple _emit(int* buf, Py_ssize_t n):
    cdef tuple out = PyTuple_New(n)
    cdef Py_ssize_t i
    cdef object v
    for i in range(n):
        v = <object> <int> buf[i]
        Py_INCREF(v)
        PyTuple_SET_ITEM(out, i, v)
    return out


def compose(tuple p, tuple q):
    """(p*q)(x) = p(q(x))."""
    cdef Py_ssize_t n = len(p)
    cdef int* a = <int*> malloc(3 * n * sizeof(int))
    if a == NULL:
        raise MemoryError()
    cdef int* b = a + n
    cdef int* c = a + 2 * n
    cdef Py_ssize_t i
    try:
        _fill(a, p, n)
        _fill(b, q, n)
        for i in range(n):
            c[i] = a[b[i] - 1]
        return _emit(c, n)
    finally:
        free(a)


def inverse(tuple p):
    cdef Py_ssize_t n = len(p)
    cdef int* a = <int*> malloc(2 * n * sizeof(int))
    if a == NULL:
        raise MemoryError()
    cdef int* b = a + n
    cdef Py_ssize_t i
    try:
        _fill(a, p, n)
        for i in range(n):
            b[a[i] - 1] = i + 1
        return _emit(b, n)
    finally:
        free(a)


def conjugate(tuple h, tuple g):
    """h g h^-1 as image tuples."""
    cdef Py_ssize_t n = len(g)
    cdef int* a = <int*> malloc(3 * n * sizeof(int))
    if a == NULL:
        raise MemoryError()
    cdef int* b = a + n
    cdef int* c = a + 2 * n
    cdef Py_ssize_t i
    try:
        _fill(a, h, n)
        _fill(b, g, n)
        for i in range(n):
            c[a[i] - 1] = a[b[i] - 1]
        return _emit(c, n)
    finally:
        free(a)


def cycle_count(tuple p):
    """Number of cycles of p, fixed points included."""
    cdef Py_ssize_t n = len(p)
    cdef int* a = <int*> malloc(n * sizeof(int) + n)
    if a == NULL:
        raise MemoryError()
    cdef char* seen = <char*> (a + n)
    cdef Py_ssize_t i, j
    cdef int count = 0
    try:
        _fill(a, p, n)
        for i in range(n):
            seen[i] = 0
        for i in range(n):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = 1
                    j = a[j] - 1
        return count
    finally:
        free(a)


def closure(list generators, long cap):
    """BFS closure of `generators` under composition; None if cap exceeded."""
    if not generators:
        return None
    cdef Py_ssize_t n = len(<tuple> generators[0])
    cdef tuple identity = _iota(n)
    cdef set elements = {identity}
    cdef list frontier = [identity]
    cdef list gens = list(dict.fromkeys(generators))
    cdef Py_ssize_t ngens = len(gens)
    cdef int* gbuf = <int*> malloc((ngens + 2) * n * sizeof(int))
    if gbuf == NULL:
        raise MemoryError()
    cdef int* gcur = gbuf + ngens * n
    cdef int* work = gbuf + (ngens + 1) * n
    cdef Py_ssize_t i, k
    cdef tuple g, w
    cdef list new
    try:
        for k in range(ngens):
            _fill(gbuf + k * n, <tuple> gens[k], n)
        while frontier:
            new = []
            for g in frontier:
                _fill(gcur, g, n)
                for k in range(ngens):
                    for i in range(n):
                        work[i] = gcur[gbuf[k * n + i] - 1]
                    w = _emit(work, n)
                    if w not in elements:
                        elements.add(w)
                        new.append(w)
                if len(elements) > cap:
                    return None
            frontier = new
        return elements
    finally:
        free(gbuf)


cdef tuple _iota(Py_ssize_t n):
    cdef tuple out = PyTuple_New(n)
    cdef Py_ssize_t i
    cdef object v
    for i in range(n):
        v = <object> <int> (i + 1)
        Py_INCREF(v)
        PyTuple_SET_ITEM(out, i, v)
    return out

