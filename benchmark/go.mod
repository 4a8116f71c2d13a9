module stellar/benchmark

go 1.22

require stellar v0.0.0

replace stellar => ../
