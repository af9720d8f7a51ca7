module ppstream/bench

go 1.22

require ppstream v0.0.0

replace ppstream => ../
