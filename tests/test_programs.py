"""Whole-program differential tests.

Each program is a realistic mini-C kernel with a known answer, executed
under every defense configuration: baseline, both IFP builds, and the
ASan/MPX baselines.  All six must agree with the expected output — a
broad cross-check of the compiler, the VM, every allocator, and every
instrumentation mode at once.
"""

import pytest

from repro.compiler import CompilerOptions
from tests.conftest import compile_and_run

#: name -> (compiler options, whether promote runs as a NOP)
ALL_CONFIGS = {
    "baseline": (CompilerOptions.baseline(), False),
    "ifp-wrapped": (CompilerOptions.wrapped(), False),
    "ifp-subheap": (CompilerOptions.subheap(), False),
    "ifp-nopromote": (CompilerOptions.wrapped(), True),
    "asan": (CompilerOptions.asan(), False),
    "mpx": (CompilerOptions.mpx(), False),
}

QUICKSORT = """
void quicksort(int *a, int lo, int hi) {
    if (lo >= hi) { return; }
    int pivot = a[(lo + hi) / 2];
    int i = lo;
    int j = hi;
    while (i <= j) {
        while (a[i] < pivot) { i++; }
        while (a[j] > pivot) { j--; }
        if (i <= j) {
            int t = a[i]; a[i] = a[j]; a[j] = t;
            i++; j--;
        }
    }
    quicksort(a, lo, j);
    quicksort(a, i, hi);
}
int main(void) {
    int n = 40;
    int *a = (int*)malloc(n * sizeof(int));
    int i;
    int seed = 7;
    for (i = 0; i < n; i++) {
        seed = (seed * 1103515245 + 12345) & 0x7fffffff;
        a[i] = seed % 1000;
    }
    quicksort(a, 0, n - 1);
    long check = 0;
    int sorted = 1;
    for (i = 0; i < n; i++) {
        check += a[i] * (i + 1);
        if (i > 0 && a[i] < a[i - 1]) { sorted = 0; }
    }
    printf("%d %d\\n", sorted, (int)(check & 0xffffff));
    free(a);
    return 0;
}
"""

HASH_MAP = """
struct entry {
    long key;
    long value;
    struct entry *next;
};
struct map {
    struct entry *buckets[16];
    int count;
};
void map_put(struct map *m, long key, long value) {
    int b = (int)(key & 15);
    struct entry *e = m->buckets[b];
    while (e != NULL) {
        if (e->key == key) { e->value = value; return; }
        e = e->next;
    }
    e = (struct entry*)malloc(sizeof(struct entry));
    e->key = key;
    e->value = value;
    e->next = m->buckets[b];
    m->buckets[b] = e;
    m->count++;
}
long map_get(struct map *m, long key) {
    struct entry *e = m->buckets[(int)(key & 15)];
    while (e != NULL) {
        if (e->key == key) { return e->value; }
        e = e->next;
    }
    return -1;
}
int main(void) {
    struct map m;
    int i;
    for (i = 0; i < 16; i++) { m.buckets[i] = NULL; }
    m.count = 0;
    for (i = 0; i < 60; i++) { map_put(&m, i * 7, i * i); }
    for (i = 0; i < 30; i++) { map_put(&m, i * 7, i); }  /* overwrite */
    long total = 0;
    for (i = 0; i < 60; i++) { total += map_get(&m, i * 7); }
    total += map_get(&m, 9999);
    printf("%d %d\\n", m.count, (int)total);
    return 0;
}
"""

BST_WITH_DELETE = """
struct node {
    int key;
    struct node *left;
    struct node *right;
};
struct node *insert(struct node *root, int key) {
    if (root == NULL) {
        struct node *n = (struct node*)malloc(sizeof(struct node));
        n->key = key;
        n->left = NULL;
        n->right = NULL;
        return n;
    }
    if (key < root->key) { root->left = insert(root->left, key); }
    else if (key > root->key) { root->right = insert(root->right, key); }
    return root;
}
struct node *delete_min(struct node *root, struct node **out) {
    if (root->left == NULL) {
        *out = root;
        return root->right;
    }
    root->left = delete_min(root->left, out);
    return root;
}
struct node *remove_key(struct node *root, int key) {
    if (root == NULL) { return NULL; }
    if (key < root->key) { root->left = remove_key(root->left, key); }
    else if (key > root->key) { root->right = remove_key(root->right, key); }
    else {
        if (root->left == NULL) { struct node *r = root->right; free(root); return r; }
        if (root->right == NULL) { struct node *l = root->left; free(root); return l; }
        struct node *succ;
        root->right = delete_min(root->right, &succ);
        succ->left = root->left;
        succ->right = root->right;
        free(root);
        return succ;
    }
    return root;
}
long sum_inorder(struct node *root, long depth) {
    if (root == NULL) { return 0; }
    return root->key + depth
        + sum_inorder(root->left, depth + 1)
        + sum_inorder(root->right, depth + 1);
}
int main(void) {
    struct node *root = NULL;
    int i;
    for (i = 0; i < 50; i++) { root = insert(root, (i * 37) % 101); }
    for (i = 0; i < 20; i++) { root = remove_key(root, (i * 37) % 101); }
    printf("%d\\n", (int)sum_inorder(root, 0));
    return 0;
}
"""

STRING_WORK = """
int count_words(char *text) {
    int count = 0;
    int in_word = 0;
    int i = 0;
    while (text[i] != 0) {
        if (text[i] == ' ') { in_word = 0; }
        else if (!in_word) { in_word = 1; count++; }
        i++;
    }
    return count;
}
int main(void) {
    char buf[128];
    strcpy(buf, "the quick brown fox");
    strcat(buf, " jumps over the lazy dog");
    int words = count_words(buf);
    long len = strlen(buf);
    char upper[128];
    int i;
    for (i = 0; buf[i] != 0; i++) { upper[i] = (char)toupper(buf[i]); }
    upper[i] = 0;
    printf("%d %d %c%c\\n", words, (int)len, upper[0], upper[4]);
    return 0;
}
"""

MATRIX_CHAIN = """
int main(void) {
    long a[4][4];
    long b[4][4];
    long c[4][4];
    int i; int j; int k;
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 4; j++) {
            a[i][j] = i + j;
            b[i][j] = (i + 1) * (j + 2);
        }
    }
    for (i = 0; i < 4; i++) {
        for (j = 0; j < 4; j++) {
            long sum = 0;
            for (k = 0; k < 4; k++) { sum += a[i][k] * b[k][j]; }
            c[i][j] = sum;
        }
    }
    long trace = 0;
    for (i = 0; i < 4; i++) { trace += c[i][i]; }
    printf("%d\\n", (int)trace);
    return 0;
}
"""

DYNAMIC_VECTOR = """
struct vec {
    int *data;
    int size;
    int capacity;
};
void push(struct vec *v, int value) {
    if (v->size == v->capacity) {
        v->capacity = v->capacity ? v->capacity * 2 : 4;
        v->data = (int*)realloc(v->data, v->capacity * sizeof(int));
    }
    v->data[v->size] = value;
    v->size++;
}
int main(void) {
    struct vec v;
    v.data = NULL;
    v.size = 0;
    v.capacity = 0;
    int i;
    for (i = 0; i < 50; i++) { push(&v, i * 3); }
    long total = 0;
    for (i = 0; i < v.size; i++) { total += v.data[i]; }
    printf("%d %d %d\\n", v.size, v.capacity, (int)total);
    free(v.data);
    return 0;
}
"""

STATE_MACHINE = """
int classify(char c) {
    switch (c) {
        case ' ':
        case '\\t': return 0;
        case '0': case '1': case '2': case '3': case '4':
        case '5': case '6': case '7': case '8': case '9': return 1;
        default: return 2;
    }
}
int main(void) {
    char *input = "ab 12 cd34  5 xyz 678";
    int tokens[3] = {0, 0, 0};
    int prev = 0;
    int i;
    for (i = 0; input[i] != 0; i++) {
        int kind = classify(input[i]);
        if (kind != 0 && (prev == 0 || prev != kind)) { tokens[kind]++; }
        prev = kind;
    }
    printf("%d %d\\n", tokens[1], tokens[2]);
    return 0;
}
"""

SIEVE = """
int main(void) {
    int limit = 200;
    char *is_composite = (char*)calloc(limit + 1, 1);
    int count = 0;
    long sum = 0;
    int i;
    for (i = 2; i <= limit; i++) {
        if (!is_composite[i]) {
            count++;
            sum += i;
            int j;
            for (j = i * 2; j <= limit; j += i) { is_composite[j] = 1; }
        }
    }
    printf("%d %d\\n", count, (int)sum);
    free(is_composite);
    return 0;
}
"""

PROGRAMS = {
    "quicksort": (QUICKSORT, "1 "),
    "hash_map": (HASH_MAP, "60 "),
    "bst_with_delete": (BST_WITH_DELETE, None),
    "string_work": (STRING_WORK, "9 43 TQ"),
    "matrix_chain": (MATRIX_CHAIN, None),
    "dynamic_vector": (DYNAMIC_VECTOR, "50 64 3675"),
    "state_machine": (STATE_MACHINE, None),
    "sieve": (SIEVE, "46 4227"),
}


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_all_defenses_agree(name):
    source, expected_prefix = PROGRAMS[name]
    outputs = {}
    for config_name, (options, no_promote) in ALL_CONFIGS.items():
        result = compile_and_run(source, options,
                                 max_instructions=50_000_000,
                                 no_promote=no_promote)
        assert result.ok, (name, config_name, result.trap)
        outputs[config_name] = result.output
    assert len(set(outputs.values())) == 1, (name, outputs)
    if expected_prefix:
        assert outputs["baseline"].startswith(expected_prefix), \
            (name, outputs["baseline"])


def test_sieve_expected_value():
    """Independent check of one program against Python ground truth."""
    limit = 200
    sieve = [True] * (limit + 1)
    primes = []
    for i in range(2, limit + 1):
        if sieve[i]:
            primes.append(i)
            for j in range(2 * i, limit + 1, i):
                sieve[j] = False
    result = compile_and_run(SIEVE, CompilerOptions.baseline())
    count, total = map(int, result.output.split())
    assert count == len(primes) and total == sum(primes)


def test_quicksort_sortedness_all_defenses():
    for config_name, (options, no_promote) in ALL_CONFIGS.items():
        result = compile_and_run(QUICKSORT, options,
                                 max_instructions=50_000_000,
                                 no_promote=no_promote)
        assert result.output.startswith("1 "), config_name
