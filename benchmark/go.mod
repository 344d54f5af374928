module ocht/benchmark

go 1.22

require ocht v0.0.0

replace ocht => ../
