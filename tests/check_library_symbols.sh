#!/bin/sh
# Symbol guard over the shipped static library.
#
#   sh tests/check_library_symbols.sh NM LIBDIFFPATTERN_A
#
# (a) The library defines no symbol of the test-support code
#     (tests/support/): the chaos proxy, the reference kernels, the GDS
#     round-trip reader and the in-memory worker directory.
# (b) Each object on the sampling path imports exactly the libm math calls
#     its allow-list below names. A libm transcendental is an IFUNC whose
#     bits depend on the host's libm and CPU, so every one that can reach
#     sampled bytes is listed with its reason. Entries marked optional are
#     codegen-dependent spellings: they may be imported but need not be.
#     Every other entry must be imported, so a call that leaves the
#     sampling path also leaves this list.
# Exits 0 when both hold, 1 with one line per finding otherwise.
set -eu

if [ $# -ne 2 ]; then
  echo "usage: $0 NM LIBDIFFPATTERN_A" >&2
  exit 2
fi
nm_tool=$1
library=$2
failed=0

# ---- (a) no test-support symbol is defined ----------------------------------
moved='FaultInjector|FaultCounters|FaultConfig|tensor::reference::|io::read_gds|decode_gds_real|StaticWorkerDirectory'
leaked=$("$nm_tool" -C --defined-only "$library" 2>/dev/null |
  grep -E "$moved" || true)
if [ -n "$leaked" ]; then
  echo "FAIL (a): the library defines test-support symbols:"
  echo "$leaked" | sed 's/^/  /' | head -n 20
  failed=1
fi

# ---- (b) libm imports of the sampling-path objects --------------------------
# member  symbol  optional  reason
allow_list='
tensor_ops expf    no  softmax_rows, the attention softmax (ROADMAP item 4)
ops        expf    no  softplus, in the diffusion auxiliary loss (training)
ops        log1pf  no  softplus, in the diffusion auxiliary loss (training)
ops        logf    no  log_clamped, in the training losses
ops        tanhf   no  gelu, used by the LayouTransformer baseline only
ops        sqrt    no  group norm 1/sqrt(var + eps); correctly rounded
unet       exp     no  sinusoidal time-embedding frequencies (double)
unet       sqrtf   no  attention scale 1/sqrt(channels); correctly rounded
unet       sincos  yes time-embedding sin/cos pair, fused by GCC at -O1 up
unet       sin     yes the same pair, unfused at -O0
unet       cos     yes the same pair, unfused at -O0
diffusion  log     no  the -H(q) constant of the KL loss (training)
simd       fmaf    yes std::fma without FMA codegen; correctly rounded
simd_avx2  fmaf    yes std::fma without FMA codegen; correctly rounded
'

# C99 <math.h> functions, with their float/long double forms.
libm='acos|asin|atan|atan2|cos|sin|tan|sincos|acosh|asinh|atanh|cosh|sinh'
libm="$libm|tanh|exp|exp2|exp10|expm1|frexp|ldexp|log|log10|log1p|log2|logb"
libm="$libm|modf|scalbn|scalbln|ilogb|cbrt|fabs|hypot|pow|sqrt|erf|erfc"
libm="$libm|lgamma|tgamma|ceil|floor|nearbyint|rint|lrint|llrint|round"
libm="$libm|lround|llround|trunc|fmod|remainder|remquo|copysign|nextafter"
libm="$libm|fdim|fmax|fmin|fma"
libm_re="^(__)?($libm)[fl]?(_finite)?\$"

undefined=$("$nm_tool" -u "$library" 2>/dev/null)
members=$(echo "$undefined" | sed -n 's/:$//p')
for member in simd simd_avx2 tensor_ops ops unet diffusion; do
  object=$(echo "$members" | grep -E "^$member(\.cpp)?\.o\$" || true)
  if [ "$(echo "$object" | grep -c .)" -ne 1 ]; then
    echo "FAIL (b): expected one archive member for '$member', found:" \
      "'$object'"
    failed=1
    continue
  fi
  imported=$(echo "$undefined" | awk -v m="$object:" '
    /:$/ { cur = $1; next }
    cur == m && $1 == "U" { print $2 }' | grep -E "$libm_re" | sort -u)
  for symbol in $imported; do
    if ! echo "$allow_list" |
      awk -v m="$member" -v s="$symbol" '$1 == m && $2 == s { f = 1 }
        END { exit f ? 0 : 1 }'; then
      echo "FAIL (b): $object imports libm '$symbol', not on its allow-list"
      failed=1
    fi
  done
  required=$(echo "$allow_list" |
    awk -v m="$member" '$1 == m && $3 == "no" { print $2 }')
  for symbol in $required; do
    if ! echo "$imported" | grep -qx "$symbol"; then
      echo "FAIL (b): $object no longer imports '$symbol'; drop its" \
        "allow-list entry"
      failed=1
    fi
  done
  echo "$member:" $imported
done

if [ "$failed" -ne 0 ]; then
  exit 1
fi
echo "library symbol guard: PASS"
