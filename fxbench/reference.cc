#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

namespace fxbench::ref {

namespace {

using fxcpp::nn::Module;

Array weight(const Module& m, const std::string& name) {
  return from_tensor(m.get_parameter(name));
}

Array conv2d(const Array& x, const Array& w, const Array* b, int stride,
             int pad) {
  const std::int64_t n = x.shape[0], c = x.shape[1], h = x.shape[2],
                     wd = x.shape[3];
  const std::int64_t o = w.shape[0], kh = w.shape[2], kw = w.shape[3];
  if (w.shape[1] != c) throw std::runtime_error("ref conv2d: channel mismatch");
  const std::int64_t oh = (h + 2 * pad - kh) / stride + 1;
  const std::int64_t ow = (wd + 2 * pad - kw) / stride + 1;
  Array y{{n, o, oh, ow}, std::vector<double>(static_cast<std::size_t>(n * o * oh * ow))};
  for (std::int64_t b0 = 0; b0 < n; ++b0)
    for (std::int64_t oc = 0; oc < o; ++oc)
      for (std::int64_t i = 0; i < oh; ++i)
        for (std::int64_t j = 0; j < ow; ++j) {
          double acc = b ? b->v[static_cast<std::size_t>(oc)] : 0.0;
          for (std::int64_t ic = 0; ic < c; ++ic)
            for (std::int64_t u = 0; u < kh; ++u) {
              const std::int64_t yi = i * stride - pad + u;
              if (yi < 0 || yi >= h) continue;
              for (std::int64_t q = 0; q < kw; ++q) {
                const std::int64_t xj = j * stride - pad + q;
                if (xj < 0 || xj >= wd) continue;
                acc += x.v[static_cast<std::size_t>(((b0 * c + ic) * h + yi) * wd + xj)] *
                       w.v[static_cast<std::size_t>(((oc * c + ic) * kh + u) * kw + q)];
              }
            }
          y.v[static_cast<std::size_t>(((b0 * o + oc) * oh + i) * ow + j)] = acc;
        }
  return y;
}

void batch_norm(Array& x, const Module& m, const std::string& p) {
  const Array mean = weight(m, p + ".running_mean");
  const Array var = weight(m, p + ".running_var");
  const Array g = weight(m, p + ".weight");
  const Array beta = weight(m, p + ".bias");
  const std::int64_t n = x.shape[0], c = x.shape[1],
                     hw = x.shape[2] * x.shape[3];
  for (std::int64_t b = 0; b < n; ++b)
    for (std::int64_t ch = 0; ch < c; ++ch) {
      const auto k = static_cast<std::size_t>(ch);
      const double scale = g.v[k] / std::sqrt(var.v[k] + 1e-5);
      for (std::int64_t i = 0; i < hw; ++i) {
        double& e = x.v[static_cast<std::size_t>((b * c + ch) * hw + i)];
        e = (e - mean.v[k]) * scale + beta.v[k];
      }
    }
}

void relu(Array& x) {
  for (double& e : x.v) e = std::max(e, 0.0);
}

void add(Array& x, const Array& y) {
  for (std::size_t i = 0; i < x.v.size(); ++i) x.v[i] += y.v[i];
}

Array max_pool(const Array& x, int k, int stride, int pad) {
  const std::int64_t n = x.shape[0], c = x.shape[1], h = x.shape[2],
                     w = x.shape[3];
  const std::int64_t oh = (h + 2 * pad - k) / stride + 1;
  const std::int64_t ow = (w + 2 * pad - k) / stride + 1;
  Array y{{n, c, oh, ow}, std::vector<double>(static_cast<std::size_t>(n * c * oh * ow))};
  for (std::int64_t p = 0; p < n * c; ++p)
    for (std::int64_t i = 0; i < oh; ++i)
      for (std::int64_t j = 0; j < ow; ++j) {
        double best = -std::numeric_limits<double>::infinity();
        for (int u = 0; u < k; ++u)
          for (int q = 0; q < k; ++q) {
            const std::int64_t yi = i * stride - pad + u, xj = j * stride - pad + q;
            if (yi < 0 || yi >= h || xj < 0 || xj >= w) continue;
            best = std::max(best, x.v[static_cast<std::size_t>((p * h + yi) * w + xj)]);
          }
        y.v[static_cast<std::size_t>((p * oh + i) * ow + j)] = best;
      }
  return y;
}

// Global average pool + flatten: [N, C, H, W] -> [N, C].
Array avg_pool_flat(const Array& x) {
  const std::int64_t n = x.shape[0], c = x.shape[1],
                     hw = x.shape[2] * x.shape[3];
  Array y{{n, c}, std::vector<double>(static_cast<std::size_t>(n * c))};
  for (std::int64_t p = 0; p < n * c; ++p) {
    double s = 0.0;
    for (std::int64_t i = 0; i < hw; ++i) s += x.v[static_cast<std::size_t>(p * hw + i)];
    y.v[static_cast<std::size_t>(p)] = s / static_cast<double>(hw);
  }
  return y;
}

Array linear(const Array& x, const Array& w, const Array& b) {
  const std::int64_t n = x.shape[0], in = x.shape[1], out = w.shape[0];
  if (w.shape[1] != in) throw std::runtime_error("ref linear: size mismatch");
  Array y{{n, out}, std::vector<double>(static_cast<std::size_t>(n * out))};
  for (std::int64_t r = 0; r < n; ++r)
    for (std::int64_t o = 0; o < out; ++o) {
      double acc = b.v[static_cast<std::size_t>(o)];
      for (std::int64_t i = 0; i < in; ++i)
        acc += x.v[static_cast<std::size_t>(r * in + i)] *
               w.v[static_cast<std::size_t>(o * in + i)];
      y.v[static_cast<std::size_t>(r * out + o)] = acc;
    }
  return y;
}

Array conv_bn(const Module& m, const std::string& conv, const std::string& bn,
              const Array& x, int stride, int pad) {
  Array y = conv2d(x, weight(m, conv + ".weight"), nullptr, stride, pad);
  batch_norm(y, m, bn);
  return y;
}

}  // namespace

Array from_tensor(const fxcpp::Tensor& t) {
  const fxcpp::Tensor c = t.contiguous();
  const float* p = c.data<float>();
  Array a;
  a.shape.assign(c.sizes().begin(), c.sizes().end());
  a.v.assign(p, p + c.numel());
  return a;
}

Array resnet50(const Module& model, const Array& x) {
  Array h = conv_bn(model, "conv1", "bn1", x, 2, 3);
  relu(h);
  h = max_pool(h, 3, 2, 1);
  const int blocks[4] = {3, 4, 6, 3};
  for (int s = 0; s < 4; ++s) {
    for (int b = 0; b < blocks[s]; ++b) {
      const std::string p = "layer" + std::to_string(s + 1) + "." + std::to_string(b);
      const int stride = (b == 0 && s > 0) ? 2 : 1;
      Array out = conv_bn(model, p + ".conv1", p + ".bn1", h, 1, 0);
      relu(out);
      out = conv_bn(model, p + ".conv2", p + ".bn2", out, stride, 1);
      relu(out);
      out = conv_bn(model, p + ".conv3", p + ".bn3", out, 1, 0);
      if (b == 0) {
        add(out, conv_bn(model, p + ".downsample.0", p + ".downsample.1", h,
                         stride, 0));
      } else {
        add(out, h);
      }
      relu(out);
      h = std::move(out);
    }
  }
  return linear(avg_pool_flat(h), weight(model, "fc.weight"),
                weight(model, "fc.bias"));
}

Array mlp(const Module& model, int layers, const Array& x) {
  Array h = x;
  for (int i = 0; i < layers; ++i) {
    const std::string p = "body." + std::to_string(2 * i);
    h = linear(h, weight(model, p + ".weight"), weight(model, p + ".bias"));
    if (i + 1 < layers) relu(h);
  }
  return h;
}

}  // namespace fxbench::ref
