// fp64 reference forward passes for ResNet-50 and the serving MLP.
//
// Written against the models' published topology with naive loops in
// double precision; it reads the models' weights by qualified name and
// shares no code with the library's tensor ops or kernels, so it is an
// independent oracle for the fp32, TRTSim and int8 engines.
#pragma once

#include <cstdint>
#include <vector>

#include "core/module.h"

namespace fxbench::ref {

struct Array {
  std::vector<std::int64_t> shape;  // NCHW or NF
  std::vector<double> v;
};

Array from_tensor(const fxcpp::Tensor& t);

// ResNet-50 (bottleneck stages {3,4,6,3}, any width / class count), batch
// norm in inference form. Returns the logits, [N, classes].
Array resnet50(const fxcpp::nn::Module& model, const Array& x);

// nn::models::MLP with ReLU between Linear layers; `layers` Linear layers.
Array mlp(const fxcpp::nn::Module& model, int layers, const Array& x);

}  // namespace fxbench::ref
